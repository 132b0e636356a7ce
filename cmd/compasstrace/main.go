// Command compasstrace manages HTTP request trace files — the paper's
// intermediate trace mechanism (§4.2): generate a SPECWeb96-like trace and
// save it, inspect a saved trace, or replay one against the simulated web
// server.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"compass/internal/apps/httpd"
	"compass/internal/frontend"
	"compass/internal/machine"
	"compass/internal/specweb"
	"compass/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compasstrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode     = fs.String("mode", "generate", "generate | show | replay")
		file     = fs.String("file", "specweb.trace", "trace file path")
		requests = fs.Int("requests", 200, "trace length (generate)")
		dirs     = fs.Int("dirs", 2, "fileset directories")
		workers  = fs.Int("workers", 4, "server processes (replay)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if err := do(stdout, *mode, *file, *requests, *dirs, *workers); err != nil {
		fmt.Fprintln(stderr, "compasstrace:", err)
		return 1
	}
	return 0
}

func do(stdout io.Writer, mode, file string, requests, dirs, workers int) error {
	swCfg := specweb.DefaultConfig()
	swCfg.Requests = requests
	swCfg.Dirs = dirs

	switch mode {
	case "generate":
		tr := specweb.GenerateTrace(swCfg)
		f, err := os.Create(file)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tr.Save(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d requests to %s\n", len(tr), file)

	case "show":
		tr, err := load(file)
		if err != nil {
			return err
		}
		var bytes int64
		for _, r := range tr {
			bytes += int64(r.Size)
		}
		fmt.Fprintf(stdout, "%s: %d requests, %d body bytes, first: %s %d\n",
			file, len(tr), bytes, tr[0].Path, tr[0].Size)

	case "replay":
		tr, err := load(file)
		if err != nil {
			return err
		}
		cfg := machine.Default()
		m := machine.New(cfg)
		specweb.GenerateFileset(m.FS, swCfg)
		hcfg := httpd.DefaultConfig()
		hcfg.Workers = workers
		m.FS.SetupCreate(hcfg.LogFile, nil)
		st := make([]httpd.Stats, workers)
		for i := 0; i < workers; i++ {
			i := i
			m.SpawnConnected(fmt.Sprintf("httpd%d", i), func(p *frontend.Proc) {
				httpd.Worker(p, hcfg, &st[i])
			})
		}
		player := trace.NewPlayer(m.Sim, m.NIC, tr, trace.PlayerConfig{
			Concurrency: workers * 2,
			ThinkCycles: 20_000,
			Workers:     workers,
			Port:        hcfg.Port,
		})
		player.Start()
		end := m.Sim.Run()
		fmt.Fprintf(stdout, "replayed %d requests in %d simulated cycles (%.0f cycles mean latency, %d bad)\n",
			player.Completed, end, player.Latency.Mean(), player.BadBytes)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	return nil
}

func load(path string) (trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.Load(f)
	if err != nil {
		return nil, err
	}
	if len(tr) == 0 {
		return nil, fmt.Errorf("%s: empty trace", path)
	}
	return tr, nil
}
