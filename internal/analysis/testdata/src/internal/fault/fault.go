// Package fault is a miniature stand-in for the simulator's fault
// package: the counter-based mixer the lane package draws from.
package fault

// Mix is the splitmix64 finalizer.
func Mix(x uint64) uint64 {
	x ^= x >> 31
	return x * 0xbf58476d1ce4e5b9
}
