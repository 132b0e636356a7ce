// Package clitest pins what the cmd/ binaries print. A binary's main is
// run(args, stdout, stderr) int; a Case runs it in-process at small fixed
// arguments and compares exit status, stdout, stderr and (for a case that
// writes one) the file's sha256 with a transcript under
// cmd/compassrun/testdata/transcripts, host-time figures and the
// temporary directory masked. `go test ./cmd/... -update` rewrites them.
package clitest

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the transcripts from what the binaries print now")

// Case is one invocation. "$TMP" in Args and File stands for a directory
// the cases of one Check share, so that a later case reads what an
// earlier one wrote.
type Case struct {
	Name string
	Args []string
	File string // when set, the transcript carries this file's sha256
}

// masks blank what depends on the host: wall times, the slowdown ratios
// computed from them, and the simulated time a watchdog happened to fire at.
var masks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`wall +[0-9.]+s`), "wall <wall>s"},
	{regexp.MustCompile(`(?m)^(\S+ +\d+ +[0-9.]+% +[0-9.]+%) +[0-9.]+(   \()`), "$1 <wall>$2"},
	{regexp.MustCompile(`(?m)^((?:raw|simple backend|complex backend) +)[0-9.]+( +\d+) +[0-9.]+x$`), "$1<wall>$2 <ratio>x"},
	{regexp.MustCompile(`(SMP-host speedup, [a-z ]+:) [0-9.]+x`), "$1 <ratio>x"},
	{regexp.MustCompile(`(kind=watchdog cycle=)\d+`), "$1<cycle>"},
}

// Check runs the cases in order against their transcripts in dir.
func Check(t *testing.T, run func(args []string, stdout, stderr io.Writer) int, dir string, cases []Case) {
	t.Helper()
	tmp := t.TempDir()
	for _, c := range cases {
		args := make([]string, len(c.Args))
		for i, a := range c.Args {
			args[i] = strings.ReplaceAll(a, "$TMP", tmp)
		}
		var stdout, stderr bytes.Buffer
		status := run(args, &stdout, &stderr)
		got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", status, stdout.String(), stderr.String())
		if c.File != "" {
			b, err := os.ReadFile(strings.ReplaceAll(c.File, "$TMP", tmp))
			if err != nil {
				t.Errorf("%s: %v", c.Name, err)
				continue
			}
			got += fmt.Sprintf("-- sha256 %s --\n%x\n", filepath.Base(c.File), sha256.Sum256(b))
		}
		got = strings.ReplaceAll(got, tmp, "$TMP")
		for _, m := range masks {
			got = m.re.ReplaceAllString(got, m.with)
		}
		path := filepath.Join(dir, c.Name+".txt")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		if got != string(want) {
			t.Errorf("%s %q differs from %s:\n--- got ---\n%s--- want ---\n%s", c.Name, c.Args, path, got, want)
		}
	}
}
