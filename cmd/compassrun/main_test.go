package main

import (
	"testing"

	"compass/cmd/internal/clitest"
)

func TestTranscripts(t *testing.T) {
	clitest.Check(t, run, "testdata/transcripts", []clitest.Case{
		{Name: "run", Args: []string{"-workload", "tpcc", "-cpus", "2", "-agents", "2", "-tx", "4"}},
		{Name: "run-seeds", Args: []string{"-workload", "tpcc", "-cpus", "2", "-agents", "2", "-tx", "3",
			"-faults", "seed=11,disk.transient=0.2,net.drop=0.02", "-seeds", "2"}},
		{Name: "run-load", Args: []string{"-workload", "specweb", "-cpus", "2", "-agents", "2",
			"-load", "requests=40;class=web,clients=100000,interval=2e9,burst=2"}},
		{Name: "run-counters", Args: []string{"-workload", "tpcd", "-rows", "2048", "-counters", "-syscalls"}},
		{Name: "run-badload", Args: []string{"-workload", "tpcd", "-load", "class=web,rate=40"}},
		{Name: "run-block", Args: []string{"-workload", "tpcc", "-agents", "1", "-tx", "1",
			"-chaos", "block", "-deadline", "300ms", "-bundle", "$TMP/bundle"}},
		{Name: "run-repro", Args: []string{"-repro", "$TMP/bundle", "-deadline", "300ms"}},
	})
}
