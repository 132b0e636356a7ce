module compass/bench

go 1.22

require compass v0.0.0

replace compass => ../
