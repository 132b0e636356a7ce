package main

import (
	"testing"

	"compass/cmd/internal/clitest"
)

func TestTranscripts(t *testing.T) {
	clitest.Check(t, run, "../compassrun/testdata/transcripts", []clitest.Case{
		{Name: "arch-sor", Args: []string{"-workload", "sor"}},
		{Name: "arch-tpcd", Args: []string{"-workload", "tpcd", "-rows", "2048"}},
		{Name: "arch-tpcc", Args: []string{"-workload", "tpcc", "-tx", "3"}},
	})
}
