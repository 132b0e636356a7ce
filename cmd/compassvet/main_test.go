package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitStatus pins compassvet's contract on a throwaway module whose
// internal/core classifies as a simulation package: 0 when clean, 1 with
// one line per finding (a wall-clock read, an unannotated map range),
// 2 when the flags name no analyzer.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vet := func(args ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := run(dir, args, &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}
	write("go.mod", "module throwaway\n\ngo 1.22\n")
	write("internal/core/core.go", "package core\n\nfunc Cycles() uint64 { return 7 }\n")

	if code, out, errOut := vet(); code != 0 || out != "" {
		t.Fatalf("clean module: exit %d, stdout %q, stderr %q; want 0 and no findings", code, out, errOut)
	}

	write("internal/core/core.go", "package core\n\nimport \"time\"\n\nfunc Cycles() uint64 { return uint64(time.Now().UnixNano()) }\n")
	code, out, errOut := vet()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if code != 1 || len(lines) != 1 || !strings.Contains(lines[0], "internal/core/core.go:5:") || !strings.Contains(lines[0], ": detwallclock: time.Now in simulation package core") {
		t.Fatalf("time.Now in internal/core: exit %d, stdout %q, stderr %q; want 1 and one detwallclock line", code, out, errOut)
	}

	write("internal/core/core.go", "package core\n\nfunc Cycles(m map[string]uint64) (n uint64) {\n\tfor _, v := range m {\n\t\tn += v\n\t}\n\treturn n\n}\n")
	code, out, errOut = vet()
	lines = strings.Split(strings.TrimSpace(out), "\n")
	if code != 1 || len(lines) != 1 || !strings.Contains(lines[0], "internal/core/core.go:4:") || !strings.Contains(lines[0], ": detmaprange: iteration over map m runs in random order") {
		t.Fatalf("unannotated map range in internal/core: exit %d, stdout %q, stderr %q; want 1 and one detmaprange line", code, out, errOut)
	}

	if code, _, errOut := vet("-run", "nosuch"); code != 2 || !strings.Contains(errOut, `unknown analyzer "nosuch"`) {
		t.Fatalf("-run nosuch: exit %d, stderr %q; want 2 and the unknown analyzer", code, errOut)
	}
}
