package main

import (
	"testing"

	"compass/cmd/internal/clitest"
)

func TestTranscripts(t *testing.T) {
	clitest.Check(t, run, "../compassrun/testdata/transcripts", []clitest.Case{
		{Name: "trace-generate", Args: []string{"-mode", "generate", "-file", "$TMP/t.trace", "-requests", "30"}, File: "$TMP/t.trace"},
		{Name: "trace-show", Args: []string{"-mode", "show", "-file", "$TMP/t.trace"}},
		{Name: "trace-replay", Args: []string{"-mode", "replay", "-file", "$TMP/t.trace", "-workers", "2"}},
	})
}
