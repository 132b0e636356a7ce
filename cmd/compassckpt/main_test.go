package main

import (
	"testing"

	"compass/cmd/internal/clitest"
)

func TestTranscripts(t *testing.T) {
	tpcc := []string{"-workload", "tpcc", "-cpus", "2", "-agents", "2", "-warmtx", "4", "-tx", "6"}
	web := []string{"-workload", "specweb", "-cpus", "2", "-agents", "2", "-warmreqs", "20", "-requests", "30"}
	clitest.Check(t, run, "../compassrun/testdata/transcripts", []clitest.Case{
		{Name: "ckpt-create", Args: append([]string{"-create", "$TMP/w.ckpt"}, tpcc...), File: "$TMP/w.ckpt"},
		{Name: "ckpt-info", Args: []string{"-info", "$TMP/w.ckpt"}},
		{Name: "ckpt-resume", Args: append([]string{"-resume", "$TMP/w.ckpt"}, tpcc...)},
		{Name: "ckpt-create-specweb", Args: append([]string{"-create", "$TMP/web.ckpt"}, web...), File: "$TMP/web.ckpt"},
		{Name: "ckpt-resume-specweb", Args: append([]string{"-resume", "$TMP/web.ckpt"}, web...)},
	})
}
