package main

import (
	"testing"

	"compass/cmd/internal/clitest"
)

func TestTranscripts(t *testing.T) {
	clitest.Check(t, run, "../compassrun/testdata/transcripts", []clitest.Case{
		{Name: "slowdown", Args: []string{"-rows", "2048"}},
	})
}
