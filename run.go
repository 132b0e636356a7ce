package compass

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"compass/internal/checkpoint"
	"compass/internal/expt"
	"compass/internal/guard"
	"compass/internal/machine"
	"compass/internal/snoop"
	"compass/internal/stats"
)

// Workload describes what runs on a machine: which application, at what
// scale, in how many phases. It is made by one of the constructors (TPCC,
// TPCD, SPECWeb, LoadHTTPD, Tier3, LoadTier3, SOR, SORDSM, BatchSweep) and
// handed to Run. A description is immutable: a campaign runs one of them
// on several machines at once, so everything a run changes (the database
// handle, server tallies, the trace player or load generator) belongs to
// the workloadRun that begin returns, never to the description.
type Workload interface {
	// begin checks the description, lets it shape the configuration of its
	// machine (a DSM cluster has one CPU per worker) and returns one run.
	begin(cfg *Config) (workloadRun, error)
}

// workloadRun is one run of a Workload on one machine. Run calls populate
// on a machine it built, or attach on one it restored, and then start for
// each phase that is left, running the machine to quiescence after each.
type workloadRun interface {
	// name labels the Result and its profile row.
	name() string
	// phases is how many times the machine runs to quiescence.
	phases() int
	// populate creates the workload's files on a fresh machine.
	populate(m *machine.Machine)
	// attach rebuilds host-side state from the sections of the checkpoint
	// a machine was restored from, which has the files in it.
	attach(section func(name string) []byte) error
	// start spawns phase k's processes and starts its clients, the clients
	// after the processes. It reports false when the phase has nothing to
	// run (an empty segment) and the machine must be left where it is.
	start(m *machine.Machine, k int) (bool, error)
	// sections is the host-side state a checkpoint taken now must carry.
	sections() ([]checkpoint.Section, error)
	// fold adds the workload's tallies to a finished Result.
	fold(res *Result)
}

// single is a Workload of one phase that keeps nothing a checkpoint would
// have to carry. spawn populates the fresh machine, spawns the processes,
// starts the clients, and returns what folds the run's tallies into its
// Result (nil for none); what a run changes lives in spawn's locals and in
// the copy of the description that begin hands to Run.
type single struct {
	label string
	err   error             // what is wrong with the constructor's arguments, if anything
	shape func(cfg *Config) // optional: the machine the workload needs
	spawn func(m *machine.Machine) (fold func(*Result), err error)

	tallies func(*Result)
}

func (s single) begin(cfg *Config) (workloadRun, error) {
	if s.shape != nil {
		s.shape(cfg)
	}
	return &s, s.err
}

func (s *single) name() string              { return s.label }
func (s *single) phases() int               { return 1 }
func (s *single) populate(*machine.Machine) {}
func (s *single) attach(func(string) []byte) error {
	return fmt.Errorf("compass: %s cannot resume from a checkpoint", s.label)
}
func (s *single) start(m *machine.Machine, _ int) (_ bool, err error) {
	s.tallies, err = s.spawn(m)
	return true, err
}
func (s *single) sections() ([]checkpoint.Section, error) {
	return nil, fmt.Errorf("compass: %s cannot be checkpointed", s.label)
}
func (s *single) fold(res *Result) {
	if s.tallies != nil {
		s.tallies(res)
	}
}

// Phases is how many phases Run runs w in on a machine of cfg, or what is
// wrong with w. A warm checkpoint (Options.WarmupCheckpoint) is the machine
// after the first of them.
func Phases(cfg Config, w Workload) (int, error) {
	r, err := w.begin(&cfg)
	if err != nil {
		return 0, err
	}
	return r.phases(), nil
}

// Options says what is done to a run besides running it; the zero value
// is a plain run. A run can only be checkpointed between two phases, where
// no workload process is alive (coroutine stacks cannot be serialized).
// Restore is bit-deterministic: the phases run on a restored machine
// produce exactly the statistics of the uninterrupted run.
type Options struct {
	// WarmupCheckpoint, when non-empty, names the file the machine is
	// saved to once phase 0 — the warm phase — has run.
	WarmupCheckpoint string
	// ResumeFrom, when non-empty, restores such a file instead of
	// simulating phase 0, or an auto-checkpoint instead of the phases up
	// to the one it was written after. Mutually exclusive with
	// WarmupCheckpoint.
	ResumeFrom string
	// AutoCkptDir, when non-empty, receives auto-NNN.ckpt at the boundary
	// after phase NNN, for every boundary but the last, and is scanned on
	// start for the latest such file written under the same configuration.
	// That is how a failed supervised run retries cheaply: run it again.
	AutoCkptDir string
	// CrashSegment, when > 0, panics once that many phases have run
	// (1-based, after the boundary's checkpoint is written): the
	// chaos-smoke harness's crash point for resume-on-failure.
	CrashSegment int
	// Guard, when non-nil, runs everything under one guard.Session: a
	// panic, a proved deadlock or a watchdog abort comes back as a
	// classified *guard.Abort (with a bundle when Guard.BundleDir is set),
	// and a run that never trips returns the unguarded run's bytes. With
	// a nil Guard nothing is contained: a panic leaves Run as it was raised.
	Guard *GuardConfig
	// Label names the attempt to the session and its bundle.
	Label string

	// snapTo and snapFrom are WarmupCheckpoint and ResumeFrom held in
	// memory: a sweep simulates its warm phase once and restores every
	// point from the same bytes.
	snapTo   **expt.Snapshot
	snapFrom *expt.Snapshot
}

// autoSection names the section an auto-checkpoint carries besides the
// workload's own: which phase a resumed run continues from, and the
// simulated time the phase before it ended at.
const autoSection = "autockpt"

type autoMeta struct {
	NextSegment int
	Cycle       uint64
}

// Run builds a machine from cfg — or restores one, as o says — runs w's
// phases on it and reduces it to a Result. Every other way of running a
// workload (campaign, sweep, tables, command line) is a loop around it.
func Run(cfg Config, w Workload, o Options) (res Result, err error) {
	if o.Guard == nil {
		return drive(cfg, w, o)
	}
	sess := guard.NewSession(*o.Guard)
	// The session attaches to every machine the run builds or restores,
	// after the caller's own hook: a hook that spawns (the chaos blocker)
	// keeps the process ids it has in an unsupervised run.
	prev := cfg.Observe
	cfg.Observe = func(m *machine.Machine) {
		if prev != nil {
			prev(m)
		}
		sess.Attach(m.Sim)
	}
	err = sess.Run(o.Label, func() (err error) {
		res, err = drive(cfg, w, o)
		return err
	})
	return res, err
}

// drive is the one place a machine is built or restored, run and finished.
// It must not recover: Sim.Run surfaces a frontend's or a task's panic
// with its original value, and only the session around a supervised run
// may turn that into an error.
func drive(cfg Config, w Workload, o Options) (Result, error) {
	if o.WarmupCheckpoint != "" && o.ResumeFrom != "" {
		return Result{}, fmt.Errorf("compass: WarmupCheckpoint and ResumeFrom are mutually exclusive")
	}
	r, err := w.begin(&cfg)
	if err != nil {
		return Result{}, err
	}

	// After begin, which may have shaped the machine, and before anything
	// is built or restored under it.
	if err := buildable(cfg); err != nil {
		return Result{}, err
	}

	n := r.phases()
	if n == 0 {
		return Result{}, fmt.Errorf("compass: %s described with no phase to run", r.name())
	}

	var (
		first int    // first phase left to run
		end   uint64 // simulated time the last phase ended at
		wall  time.Duration
	)
	m, section, from, err := restore(cfg, o)
	if err != nil {
		return Result{}, err
	}
	if m == nil {
		m = machine.New(cfg)
		r.populate(m)
	} else {
		// The file says where its run resumes: an auto-checkpoint after the
		// phase its section names, a warm checkpoint after phase 0.
		first = 1
		if section(autoSection) != nil {
			var meta autoMeta
			if err := ungobSection(section, autoSection, &meta); err != nil {
				return Result{}, fmt.Errorf("compass: auto checkpoint metadata: %w", err)
			}
			first, end = meta.NextSegment, meta.Cycle
		}
		if first >= n {
			return Result{}, fmt.Errorf("compass: %s was written after %d phase(s), and %s describes %d: no phase is left to run",
				from, first, r.name(), n)
		}
		// A snapshot cannot carry the Observe hook, and a restore does not
		// go through machine.New: without this a resumed run would never
		// reach its supervisor.
		if cfg.Observe != nil {
			cfg.Observe(m)
		}
		if err := r.attach(section); err != nil {
			return Result{}, err
		}
	}

	for k := first; k < n; k++ {
		ran, err := r.start(m, k)
		if err != nil {
			return Result{}, err
		}
		if ran {
			start := time.Now()
			end = uint64(m.Sim.Run())
			wall += time.Since(start)
		}
		if k == 0 && (o.WarmupCheckpoint != "" || o.snapTo != nil) {
			if err := save(m, r, o.WarmupCheckpoint, o.snapTo, nil); err != nil {
				return Result{}, err
			}
		}
		if k < n-1 && o.AutoCkptDir != "" {
			if err := os.MkdirAll(o.AutoCkptDir, 0o755); err != nil {
				return Result{}, err
			}
			path := filepath.Join(o.AutoCkptDir, fmt.Sprintf("auto-%03d.ckpt", k))
			if err := save(m, r, path, nil, &autoMeta{NextSegment: k + 1, Cycle: end}); err != nil {
				return Result{}, err
			}
		}
		if o.CrashSegment > 0 && k+1 == o.CrashSegment {
			panic(fmt.Sprintf("chaos: injected crash after segment %d", k+1))
		}
	}

	total := m.Sim.TotalAccount()
	res := Result{
		Name:     r.name(),
		Cycles:   end,
		Profile:  stats.ProfileOf(r.name(), &total),
		Counters: m.Sim.Counters(),
		Wall:     wall,
		Extra:    map[string]float64{},
		Syscalls: m.OS.FormatSyscallProfile(8),
	}
	m.FaultCounters(res.Counters)
	res.Windows, res.ParallelWindows, _ = m.Sim.WindowStats()
	r.fold(&res)
	return res, nil
}

// buildable reports what machine.New would panic about: a Config comes from
// outside the program (flags, a bundle's spec), so it is an error.
func buildable(cfg Config) error {
	switch {
	case cfg.CPUs < 1:
		return fmt.Errorf("compass: %d CPUs", cfg.CPUs)
	case cfg.Nodes < 1:
		return fmt.Errorf("compass: %d nodes", cfg.Nodes)
	case cfg.CPUs%cfg.Nodes != 0:
		return fmt.Errorf("compass: %d CPUs not divisible by %d nodes", cfg.CPUs, cfg.Nodes)
	case (cfg.Arch == ArchSimple || cfg.Arch == ArchSMP) && cfg.CPUs > snoop.MaxCPUs:
		return fmt.Errorf("compass: %d CPUs on a snooping bus, at most %d", cfg.CPUs, snoop.MaxCPUs)
	}
	return nil
}

// restore rebuilds the machine o asks the run to resume from: the sweep's
// shared snapshot, the ResumeFrom file, or the latest auto-checkpoint
// written under cfg. from names what it restored. A nil machine means the
// run starts cold.
func restore(cfg Config, o Options) (m *machine.Machine, section func(string) []byte, from string, err error) {
	if o.snapFrom != nil {
		m, err = o.snapFrom.Restore()
		return m, o.snapFrom.Section, "the warm snapshot", err
	}
	path := o.ResumeFrom
	if path == "" && o.AutoCkptDir != "" {
		path = latestAutoCkpt(o.AutoCkptDir, cfg)
	}
	if path == "" {
		return nil, nil, "", nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, "", err
	}
	defer f.Close()
	// The hash leaves out what a resumed run may change (Shards, Observe).
	info, err := checkpoint.ReadInfo(f)
	if err != nil {
		return nil, nil, "", fmt.Errorf("%s: %w", path, err)
	}
	if want := checkpoint.ConfigHash(cfg); info.ConfigHash != want {
		return nil, nil, "", fmt.Errorf("compass: %s was written under configuration %x, not the %x this run asks for",
			path, info.ConfigHash[:8], want[:8])
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, "", err
	}
	// Snapshots are shard-count-invariant: the run resumes at its own.
	m, sections, err := checkpoint.RestoreFullShards(f, cfg.Shards)
	return m, func(name string) []byte { return sections[name] }, path, err
}

// latestAutoCkpt scans dir for the newest auto-NNN.ckpt whose config hash
// matches cfg, or "" when there is none. Newest is the highest number, not
// the last name: the number is padded to three digits only, so auto-1000
// sorts before auto-999. Unreadable or mismatched files are skipped, not
// fatal — a stale directory must never poison a fresh run.
func latestAutoCkpt(dir string, cfg Config) string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	type autoFile struct {
		seq  int
		path string
	}
	var files []autoFile
	for _, e := range entries {
		num, ok := strings.CutPrefix(e.Name(), "auto-")
		num, ok2 := strings.CutSuffix(num, ".ckpt")
		seq, err := strconv.Atoi(num)
		if ok && ok2 && err == nil && !e.IsDir() {
			files = append(files, autoFile{seq, filepath.Join(dir, e.Name())})
		}
	}
	slices.SortFunc(files, func(a, b autoFile) int { return cmp.Compare(b.seq, a.seq) })
	want := checkpoint.ConfigHash(cfg)
	for _, a := range files {
		f, err := os.Open(a.path)
		if err != nil {
			continue
		}
		info, err := checkpoint.ReadInfo(f)
		f.Close()
		if err == nil && info.ConfigHash == want {
			return a.path
		}
	}
	return ""
}

// save checkpoints the quiescent machine and the run's host-side sections
// into *snap when there is one, else into the file at path; an
// auto-checkpoint adds its own section.
func save(m *machine.Machine, r workloadRun, path string, snap **expt.Snapshot, auto *autoMeta) error {
	secs, err := r.sections()
	if err != nil {
		return err
	}
	if auto != nil {
		more, err := gobSection(autoSection, *auto)
		if err != nil {
			return err
		}
		secs = append(secs, more...)
	}
	if snap != nil {
		*snap, err = expt.TakeSnapshot(m, secs)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := checkpoint.SaveSections(f, m, secs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
