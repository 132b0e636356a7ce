package main

import (
	"testing"

	"compass/cmd/internal/clitest"
)

func TestTranscripts(t *testing.T) {
	clitest.Check(t, run, "../compassrun/testdata/transcripts", []clitest.Case{
		{Name: "table1", Args: []string{"-cpus", "2", "-tpcc-tx", "6", "-tpcd-rows", "2048", "-web-requests", "20"}},
	})
}
