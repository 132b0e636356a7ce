package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/transcripts from what the verbs print now")

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

// transcript runs the command in-process and renders what a user of it
// sees: exit status, stdout, stderr and, when file is set, the sha256 of
// the file the command wrote. "$TMP" in args and file stands for tmp.
func transcript(t *testing.T, tmp string, args []string, file string) string {
	t.Helper()
	in := func(s string) string { return strings.ReplaceAll(s, "$TMP", tmp) }
	argv := make([]string, len(args))
	for i, a := range args {
		argv[i] = in(a)
	}
	var stdout, stderr bytes.Buffer
	status := run(argv, &stdout, &stderr)
	got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", status, stdout.String(), stderr.String())
	if file != "" {
		b, err := os.ReadFile(in(file))
		if err != nil {
			t.Fatal(err)
		}
		got += fmt.Sprintf("-- sha256 %s --\n%x\n", filepath.Base(file), sha256.Sum256(b))
	}
	got = strings.ReplaceAll(got, tmp, "$TMP")
	for _, m := range masks {
		got = m.re.ReplaceAllString(got, m.with)
	}
	return got
}

// The transcripts under testdata, one a case, pin every verb and every
// feature command line the README and DESIGN.md show, at small sizes. The
// first twenty (run through trace-replay) were written by the seven
// binaries cmd/ held before they became verbs of this one (compassrun,
// compassarch, compassckpt, compassprof, compassslow, compasstrace), each
// run at the arguments its verb is given here: a verb prints what its
// binary printed, byte for byte, and writes the files it wrote. Only
// trace-replay was rewritten with the verbs: a replay prints the Result of
// the run it is, with the cycles, requests and bad-byte count of the old
// binary's line (51470546, 30, 0). The cases after trace-replay pin what
// the features printed when the reach gate (DESIGN.md §17) was added, the
// verbs unchanged: tier3, -load, each fault site, -syncd, -migrate,
// checkpoints on ccnuma and coma and under faults, -autockpt with a crash
// and a resume, campaigns with a crash seed and with -autockpt, -arch,
// -placement, -sched, -shards, the profiles, a deadlock and two failures. Cases run in order and share a directory,
// so that a later one reads what an earlier one wrote. A file under
// testdata/transcripts that no case writes fails the test: a case that
// goes takes its transcript with it.
func TestTranscripts(t *testing.T) {
	with := func(head []string, tail ...string) []string { return append(head[:len(head):len(head)], tail...) }
	small := func(head ...string) []string { return with(head, "-cpus", "2", "-agents", "2") }
	tpcc := small("-workload", "tpcc", "-warmtx", "4", "-tx", "6")
	web := small("-workload", "specweb", "-warmreqs", "20", "-requests", "30")
	allFaults := "seed=3,disk.transient=0.05,disk.slow=0.05,net.drop=0.02,net.corrupt=0.01,net.dup=0.01,net.retries=6,mem.ecc=1e-5"
	tmp := t.TempDir()
	cases := map[string]bool{}
	for _, c := range []struct {
		name string
		args []string
		file string
	}{
		{name: "run", args: small("-workload", "tpcc", "-tx", "4")},
		{name: "run-seeds", args: small("-workload", "tpcc", "-tx", "3",
			"-faults", "seed=11,disk.transient=0.2,net.drop=0.02", "-seeds", "2")},
		{name: "run-load", args: small("run", "-workload", "specweb",
			"-load", "requests=40;class=web,clients=100000,interval=2e9,burst=2")},
		{name: "run-counters", args: []string{"-workload", "tpcd", "-rows", "2048", "-counters", "-syscalls"}},
		{name: "run-badload", args: []string{"-workload", "tpcd", "-load", "class=web,rate=40"}},
		{name: "run-block", args: []string{"-workload", "tpcc", "-agents", "1", "-tx", "1",
			"-chaos", "block", "-deadline", "300ms", "-bundle", "$TMP/bundle"}},
		{name: "run-repro", args: []string{"-repro", "$TMP/bundle", "-deadline", "300ms"}},
		{name: "arch-sor", args: []string{"arch", "-workload", "sor"}},
		{name: "arch-tpcd", args: []string{"arch", "-workload", "tpcd", "-rows", "2048"}},
		{name: "arch-tpcc", args: []string{"arch", "-workload", "tpcc", "-tx", "3"}},
		{name: "ckpt-create", args: with([]string{"ckpt", "-create", "$TMP/w.ckpt"}, tpcc...), file: "$TMP/w.ckpt"},
		{name: "ckpt-info", args: []string{"ckpt", "-info", "$TMP/w.ckpt"}},
		{name: "ckpt-resume", args: with([]string{"ckpt", "-resume", "$TMP/w.ckpt"}, tpcc...)},
		{name: "ckpt-create-specweb", args: with([]string{"ckpt", "-create", "$TMP/web.ckpt"}, web...), file: "$TMP/web.ckpt"},
		{name: "ckpt-resume-specweb", args: with([]string{"ckpt", "-resume", "$TMP/web.ckpt"}, web...)},
		{name: "table1", args: small("table1", "-tx", "6", "-rows", "2048", "-requests", "20")},
		{name: "slowdown", args: []string{"slowdown", "-rows", "2048"}},
		{name: "trace-generate", args: []string{"trace", "generate", "-trace", "$TMP/t.trace", "-requests", "30"}, file: "$TMP/t.trace"},
		{name: "trace-show", args: []string{"trace", "show", "-trace", "$TMP/t.trace"}},
		{name: "trace-replay", args: []string{"trace", "replay", "-trace", "$TMP/t.trace", "-agents", "2"}},
		{name: "run-ccnuma-counters", args: small("-workload", "tpcc", "-tx", "3", "-arch", "ccnuma", "-nodes", "2", "-counters")},
		{name: "run-arch-fixed", args: small("-workload", "tpcc", "-tx", "3", "-arch", "fixed")},
		{name: "run-arch-smp", args: small("-workload", "tpcc", "-tx", "3", "-arch", "smp")},
		{name: "run-arch-coma", args: small("-workload", "tpcc", "-tx", "3", "-arch", "coma", "-nodes", "2")},
		{name: "run-placement", args: small("-workload", "tpcd", "-rows", "2048", "-arch", "ccnuma", "-nodes", "2", "-placement", "block")},
		{name: "run-sched", args: with(small("-workload", "tpcc", "-tx", "3", "-sched", "affinity", "-preempt"), "-agents", "4")},
		{name: "run-specweb", args: small("-workload", "specweb", "-dirs", "2", "-requests", "30")},
		{name: "run-tier3", args: small("-workload", "tier3", "-requests", "20")},
		{name: "run-tier3-load", args: small("-workload", "tier3", "-load", "requests=20;class=dyn,rate=40,flash=2e6:4e6:8")},
		{name: "run-load-classes", args: small("-workload", "specweb", "-load",
			"seed=42,requests=40;class=web,clients=1000000,interval=1e9,burst=2,objects=16;class=api,rate=40,objects=8,flash=2e6:4e6:8")},
		{name: "run-faults-disk", args: small("-workload", "tpcc", "-tx", "3",
			"-faults", "seed=7,disk.transient=0.05,disk.slow=0.05,disk.bad=0.01,mem.ecc=1e-5")},
		{name: "run-faults-net", args: small("-workload", "specweb", "-requests", "30",
			"-faults", "seed=3,net.drop=0.02,net.corrupt=0.01,net.dup=0.01,net.retries=6")},
		{name: "run-faults-load", args: small("-workload", "specweb", "-faults", "seed=3,net.drop=0.02,net.corrupt=0.01,net.dup=0.01,net.retries=6",
			"-load", "requests=30;class=web,clients=1000,interval=2e9,burst=2")},
		{name: "trace-replay-faults", args: []string{"trace", "replay", "-trace", "$TMP/t.trace", "-agents", "2",
			"-faults", "seed=3,net.drop=0.02,net.corrupt=0.01,net.dup=0.01,net.retries=6"}},
		{name: "run-syncd", args: small("-workload", "tpcc", "-tx", "3", "-syncd", "200000")},
		{name: "run-migrate", args: small("-workload", "tpcd", "-rows", "2048", "-arch", "ccnuma", "-nodes", "2", "-migrate", "2")},
		{name: "ckpt-create-ccnuma", args: with([]string{"ckpt", "-create", "$TMP/numa.ckpt", "-arch", "ccnuma", "-nodes", "2"}, tpcc...), file: "$TMP/numa.ckpt"},
		{name: "ckpt-resume-ccnuma", args: with([]string{"ckpt", "-resume", "$TMP/numa.ckpt", "-arch", "ccnuma", "-nodes", "2"}, tpcc...)},
		{name: "ckpt-create-coma", args: with([]string{"ckpt", "-create", "$TMP/coma.ckpt", "-arch", "coma", "-nodes", "2"}, tpcc...), file: "$TMP/coma.ckpt"},
		{name: "ckpt-resume-coma", args: with([]string{"ckpt", "-resume", "$TMP/coma.ckpt", "-arch", "coma", "-nodes", "2"}, tpcc...)},
		{name: "run-autockpt-crash", args: small("-workload", "tpcc", "-tx", "6", "-autockpt", "$TMP/ck", "-chaos", "crashsegment=2")},
		{name: "run-autockpt-resume", args: small("-workload", "tpcc", "-tx", "6", "-autockpt", "$TMP/ck")},
		{name: "ckpt-resume-auto", args: small("ckpt", "-resume", "$TMP/ck/auto-001.ckpt", "-workload", "tpcc", "-tx", "6", "-segments", "4", "-warmtx", "0")},
		{name: "run-crashseed", args: small("-workload", "tpcc", "-tx", "3", "-faults", "seed=7,disk.transient=0.01",
			"-seeds", "3", "-retries", "1", "-chaos", "crashseed=8", "-parallel", "1", "-bundle", "$TMP/bundles")},
		{name: "run-shards", args: small("-workload", "tpcc", "-tx", "4", "-shards", "2")},
		{name: "run-guarded", args: small("-workload", "tpcc", "-tx", "3", "-deadline", "30s", "-stall", "5s")},
		{name: "run-segments-bad", args: []string{"-workload", "sor", "-segments", "3"}},
		{name: "run-deadlock", args: []string{"-workload", "tpcc", "-agents", "1", "-tx", "1", "-chaos", "block", "-rtc=false"}},
		{name: "ckpt-info-missing", args: []string{"ckpt", "-info", "$TMP/absent.ckpt"}},
		{name: "ckpt-create-faults", args: with([]string{"ckpt", "-create", "$TMP/faults.ckpt", "-faults", allFaults}, web...), file: "$TMP/faults.ckpt"},
		{name: "ckpt-resume-faults", args: with([]string{"ckpt", "-resume", "$TMP/faults.ckpt", "-faults", allFaults}, web...)},
		{name: "run-faults-badblocks", args: small("-workload", "tpcc", "-tx", "3", "-faults", "seed=7,disk.bad=0.2")},
		{name: "run-campaign-autockpt", args: small("-workload", "tpcc", "-tx", "3", "-faults", "seed=7,disk.transient=0.01",
			"-seeds", "2", "-retries", "1", "-autockpt", "$TMP/campaign", "-parallel", "1")},
		{name: "run-profile", args: small("-workload", "tpcc", "-tx", "3", "-cpuprofile", "$TMP/cpu.pb.gz", "-memprofile", "$TMP/mem.pb.gz")},
	} {
		cases[c.name+".txt"] = true
		got := transcript(t, tmp, c.args, c.file)
		path := filepath.Join("testdata", "transcripts", c.name+".txt")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("compassrun %q differs from %s:\n--- got ---\n%s--- want ---\n%s", c.args, path, got, want)
		}
	}
	files, err := os.ReadDir(filepath.Join("testdata", "transcripts"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !cases[f.Name()] {
			t.Errorf("testdata/transcripts/%s has no case", f.Name())
		}
	}
}

// What cannot run is one line on stderr and exit status 2 before anything
// is simulated or printed, not a goroutine dump half-way down a table; a
// snapshot does not resume under flags it was not written under.
func TestUnrunnableSpecsFailInOneLine(t *testing.T) {
	tmp := t.TempDir()
	tpcc := []string{"-workload", "tpcc", "-cpus", "2", "-agents", "2", "-warmtx", "2", "-tx", "2"}
	load := []string{"-workload", "specweb", "-cpus", "2", "-agents", "2", "-load", "requests=40;class=web,clients=100000,interval=2e9,burst=2"}
	if got := transcript(t, tmp, append([]string{"ckpt", "-create", "$TMP/w.ckpt"}, tpcc...), ""); !strings.HasPrefix(got, "exit 0\n") {
		t.Fatal(got)
	}
	for _, c := range []struct {
		args []string
		want string // the transcript, or for a run that got as far as its own words, their start
	}{
		{[]string{"arch", "-workload", "tpcc", "-nodes", "3"},
			"exit 2\n-- stdout --\n-- stderr --\ncompass: 4 CPUs not divisible by 3 nodes\n"},
		{[]string{"arch", "-workload", "tpcd", "-cpus", "-3"},
			"exit 2\n-- stdout --\n-- stderr --\ncompass: -cpus -3 is negative\n"},
		{[]string{"-workload", "sor", "-agents", "-1"},
			"exit 2\n-- stdout --\n-- stderr --\ncompass: -agents -1 is negative\n"},
		{append([]string{"ckpt", "-resume", "$TMP/w.ckpt", "-arch", "ccnuma"}, tpcc...),
			"exit 1\n-- stdout --\n-- stderr --\nkind=error reason=\"compass: $TMP/w.ckpt was written under configuration "},
		{append([]string{"ckpt", "-resume", "$TMP/w.ckpt", "-shards", "2"}, tpcc...),
			"exit 0\n-- stdout --\nTPCC/db "},
		{append([]string{"ckpt", "-create", "$TMP/load.ckpt"}, load...),
			"exit 2\n-- stdout --\n-- stderr --\ncompass: -warmreqs adds a warm phase of generated requests; a -load or -trace run plays its own in one phase\n"},
		{append([]string{"ckpt", "-create", "$TMP/load.ckpt", "-warmreqs", "0"}, load...),
			"exit 2\n-- stdout --\n-- stderr --\ncompass: ckpt -create saves the machine after a warm phase; this specweb run has one phase\n"},
		{append([]string{"ckpt", "-create", "$TMP/one.ckpt", "-warmtx", "0"}, tpcc[:6]...),
			"exit 2\n-- stdout --\n-- stderr --\ncompass: ckpt -create saves the machine after a warm phase; this tpcc run has one phase\n"},
	} {
		got := transcript(t, tmp, c.args, "")
		if strings.HasSuffix(c.want, "\n") && got != c.want || !strings.HasPrefix(got, c.want) {
			t.Errorf("compassrun %q:\n%s--- want ---\n%s", c.args, got, c.want)
		}
	}
}

// cmd/ reaches the simulator through the root package's FromSpec and Run:
// a binary that assembles a machine or spawns a workload by hand has left
// supervision, checkpoints and the Result behind.
func TestCmdDoesNotAssembleMachines(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}: {{join .Imports " "}} {{join .TestImports " "}}`, "compass/cmd/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	banned := regexp.MustCompile(`compass/internal/(machine|frontend|specweb|apps/\w+)\b`)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if pkg := banned.FindString(line); pkg != "" {
			t.Errorf("%s imports %s", strings.SplitN(line, ":", 2)[0], pkg)
		}
	}
}
