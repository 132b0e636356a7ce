// Package core implements the backend simulation process (§2): it binds
// the communicator, the global event scheduler and the target-architecture
// memory model, and hosts the category-2 OS models — the process scheduler
// (FCFS / affinity / preemptive, §3.3.2), the virtual-memory manager
// (§3.3.1), blocking-call bookkeeping (§3.3.3) and interrupt delivery
// (§3.2).
package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"compass/internal/comm"
	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/mem"
	"compass/internal/memsys"
	"compass/internal/stats"
)

// SchedPolicy selects the process scheduler (§3.3.2).
type SchedPolicy int

const (
	// SchedFCFS assigns the first available processor ("default").
	SchedFCFS SchedPolicy = iota
	// SchedAffinity prefers a processor the process used before,
	// then a processor on the same node ("optimized").
	SchedAffinity
)

// String names the policy.
func (p SchedPolicy) String() string {
	switch p {
	case SchedFCFS:
		return "fcfs"
	case SchedAffinity:
		return "affinity"
	default:
		return fmt.Sprintf("SchedPolicy(%d)", int(p))
	}
}

// Config describes the simulated machine and backend behaviour.
type Config struct {
	// CPUs is the number of simulated processors.
	CPUs int
	// CPUsPerNode groups processors into nodes for the affinity scheduler
	// and first-touch placement. 0 means all CPUs on one node.
	CPUsPerNode int
	// MemFrames is the size of simulated physical memory in 4 KB frames.
	MemFrames uint64
	// MemNodes is the number of memory nodes (home-node placement).
	MemNodes int
	// Placement is the page-placement policy.
	Placement mem.Placement
	// NewModel builds the target memory system; it receives the physical
	// memory (for home-node lookups) and the CPU count.
	NewModel func(phys *mem.Physical, cpus int) memsys.Model
	// Scheduler picks the process-scheduler policy.
	Scheduler SchedPolicy
	// Preemptive enables quantum-based preemption on top of the policy.
	Preemptive bool
	// Quantum is the preemption interval in cycles.
	Quantum event.Cycle
	// Shards is the parallel-backend lane count: lane 0 is the home
	// (coordinator) lane, lanes 1..Shards-1 run shard-affine task streams
	// in conservative windows. 0 or 1 disables windows; results are
	// byte-identical either way.
	Shards int
	// ShardLookahead is the conservative quantum in cycles — the minimum
	// cross-shard interaction latency. Required (nonzero) when Shards > 1;
	// machine derives it from the assembled topology.
	ShardLookahead event.Cycle
}

// timing is the static instruction-latency table every frontend charges.
var timing = isa.DefaultTiming()

const (
	// CtxSwitch is the context-switch cost in cycles.
	CtxSwitch event.Cycle = 600
	// CallCycles is the fixed backend-call (category-2 service) cost.
	CallCycles event.Cycle = 80
)

// DefaultConfig returns a 4-CPU, 64 MB, FCFS machine with a fixed-latency
// memory model.
func DefaultConfig() Config {
	return Config{
		CPUs:      4,
		MemFrames: 16384, // 64 MB
		MemNodes:  1,
		Placement: mem.PlaceRoundRobin,
		NewModel: func(_ *mem.Physical, _ int) memsys.Model {
			return &memsys.Fixed{Latency: 10}
		},
		Scheduler: SchedFCFS,
		Quantum:   200000,
	}
}

type cpuInfo struct {
	occupant     int // proc id, or -1
	pendingSteal event.Cycle
	preempt      bool
	lastOccupant int // occupant at last quantum tick (-2 = none yet)
	deferred     []deferredIntr
}

type procInfo struct {
	id      int
	name    string
	port    *comm.Port
	proc    *frontend.Proc
	space   *mem.Space
	cpu     int // current CPU, -1 when not dispatched
	lastCPU int
	// parked is the reply withheld until the process scheduler gives the
	// process a CPU again (spawn, block, yield, preemption). It points at
	// parkedReply, the process's own cell, so that parking allocates nothing.
	parked      *comm.Reply
	parkedReply comm.Reply
	inReady     bool
	exited      bool
	// daemon processes (kernel threads like syncd) do not keep the
	// simulation alive: Run ends when every non-daemon process exits.
	daemon bool
}

// Sim is the backend simulation process.
type Sim struct {
	cfg   Config //ckpt:skip rebuilt by New from the machine's Config
	hub   *comm.Hub
	queue *event.Queue
	// eng is the sharded window engine over queue. It holds no simulation
	// state between windows (everything lives in the queue at any point the
	// coordinator can observe), which is what makes snapshots shard-count-
	// invariant.
	eng     *event.Sharded   //ckpt:skip stateless between windows; rebuilt by New
	sharded bool             //ckpt:skip derived from cfg.Shards by New
	phys    *mem.Physical    //ckpt:skip subsystem wiring; machine.Restore restores it separately
	shm     *mem.ShmRegistry //ckpt:skip subsystem wiring; machine.Restore restores it separately
	kernel  *mem.Space       //ckpt:skip subsystem wiring; machine.Restore restores it separately
	model   memsys.Model     //ckpt:skip subsystem wiring; machine.Restore restores the model's own snapshot
	ecc     *mem.ECC         //ckpt:skip subsystem wiring; machine.Restore restores the sampler's own snapshot

	procs   []*procInfo
	cpus    []cpuInfo
	ready   []int
	live    int
	daemons int

	curTime   event.Cycle
	curProcID int  //ckpt:skip current-dispatch scratch; quiescence means no block is in flight
	curBlock  bool //ckpt:skip current-dispatch scratch; quiescence means no block is in flight

	// quantumFn is the preemption tick bound once, so periodic re-arming
	// does not allocate a closure per quantum.
	quantumFn func() //ckpt:skip prebound function value, re-created by New

	// idleIntr accumulates interrupt-handler cycles delivered to CPUs with
	// no process dispatched (nobody to steal from).
	idleIntr stats.TimeAccount
	counters stats.Counters

	ctxSwitches uint64
	preemptions uint64
	// rmws is the sync.rmw counter since New or Restore. It is bumped once
	// per RMW reference, too often for a string-keyed map; ownCounters
	// folds it into the named set.
	rmws uint64
	// intrs is the intr.delivered counter, kept like rmws: a device raises an
	// interrupt per packet or disk block.
	intrs uint64
	// spins counts the KSpin events served, spinCAS the CAS steps their
	// walks carried after the posted one, and spinYields the yields
	// (SpinStats).
	spins, spinCAS, spinYields uint64 //ckpt:skip host-side figures like the hub's PortStats, no simulation effect

	deadlockInfo string //ckpt:skip diagnostic text; a deadlocked run refuses to checkpoint

	// hostWork is what every process spawned from now on is given as its
	// frontend.Proc.SetHostWork.
	hostWork float64 //ckpt:skip host-side work knob, no simulation effect

	// iter counts backend loop iterations; progress mirrors it into an
	// atomic every 64 iterations so a host-side watchdog can observe
	// activity without touching the hot path on every spin. abortMsg is the
	// watchdog's abort request, honored at the next loop iteration.
	iter     uint64                 //ckpt:skip host-side watchdog scratch, no simulation effect
	progress atomic.Uint64          //ckpt:skip host-side watchdog gauge, no simulation effect
	abortMsg atomic.Pointer[string] //ckpt:skip host-side abort request; a tripped run never checkpoints
}

// New builds a simulator from cfg.
func New(cfg Config) *Sim {
	if cfg.CPUs < 1 {
		panic("core: need at least one CPU")
	}
	if cfg.CPUsPerNode <= 0 {
		cfg.CPUsPerNode = cfg.CPUs
	}
	if cfg.MemNodes < 1 {
		cfg.MemNodes = 1
	}
	if cfg.Shards > 1 && cfg.ShardLookahead == 0 {
		panic(fmt.Sprintf("core: Shards=%d requires a nonzero ShardLookahead — no cross-shard latency to derive a conservative quantum from (the machine layer derives it from the assembled topology)", cfg.Shards))
	}
	s := &Sim{
		cfg:       cfg,
		hub:       comm.NewHub(cfg.CPUs),
		queue:     event.NewQueue(),
		phys:      mem.NewPhysical(cfg.MemFrames, cfg.MemNodes, cfg.Placement),
		curProcID: -1,
	}
	lanes := cfg.Shards
	if lanes < 1 {
		lanes = 1
	}
	// The engine (and its lane handles) exists in serial mode too, so
	// shard-affine components schedule through the same code path at every
	// shard count — the passthrough lane is the serial scheduler.
	s.eng = event.NewSharded(s.queue, lanes, cfg.ShardLookahead, func(now event.Cycle) {
		if msg := s.abortMsg.Load(); msg != nil {
			panic(&AbortError{Reason: *msg, Cycle: uint64(now)})
		}
	})
	s.sharded = lanes > 1
	s.hub.SetService(s.serveInPlace)
	s.shm = mem.NewShmRegistry(s.phys)
	s.kernel = mem.NewSpace(s.phys)
	s.model = cfg.NewModel(s.phys, cfg.CPUs)
	s.cpus = make([]cpuInfo, cfg.CPUs)
	for i := range s.cpus {
		s.cpus[i] = cpuInfo{occupant: -1, lastOccupant: -2}
	}
	if cfg.Preemptive {
		s.scheduleQuantumTick()
	}
	return s
}

// Phys returns the simulated physical memory (backend context).
func (s *Sim) Phys() *mem.Physical { return s.phys }

// Shm returns the shared-memory registry (backend context).
func (s *Sim) Shm() *mem.ShmRegistry { return s.shm }

// KernelSpace returns the shared kernel address space (backend context).
func (s *Sim) KernelSpace() *mem.Space { return s.kernel }

// Model returns the memory-system model (backend context).
func (s *Sim) Model() memsys.Model { return s.model }

// Hub returns the communicator.
func (s *Sim) Hub() *comm.Hub { return s.hub }

// SetECC installs an ECC-correctable-event sampler charged on every
// memory reference. Nil disables sampling (the default).
func (s *Sim) SetECC(e *mem.ECC) { s.ecc = e }

// ECC returns the installed sampler, or nil.
func (s *Sim) ECC() *mem.ECC { return s.ecc }

// CPUs returns the simulated CPU count.
func (s *Sim) CPUs() int { return s.cfg.CPUs }

// Lane maps an affinity key (a workload class index, a node id, ...) onto
// a backend lane and returns its handle. With fewer than two lanes every
// key maps to the home lane, whose handle schedules exactly like the
// serial engine — components capture a Lane once at setup and run
// unchanged at any shard count.
func (s *Sim) Lane(affinity int) *event.Lane {
	n := s.eng.Lanes()
	if n < 2 || affinity < 0 {
		return s.eng.Lane(0)
	}
	return s.eng.Lane(1 + affinity%(n-1))
}

// WindowStats reports how many conservative windows the sharded engine
// ran, how many ran multi-lane, and how many tasks they dispatched (zero
// on a serial run) — benchmark and report plumbing.
func (s *Sim) WindowStats() (windows, parallel, tasks uint64) { return s.eng.Windows() }

// PortStats reports how many events the processes posted, how many of them
// were served in place, on the poster's coroutine with no switch to the
// backend loop and back, and how many references were served past the first
// of a range, batched or spin event (no switch either); per reference, the
// share served without a switch is (inPlace + ranged) / (posts + ranged).
// Like WindowStats it describes how the host got through the run, not the
// simulation: it is in neither Counters nor the checkpoint.
func (s *Sim) PortStats() (posts, inPlace, ranged uint64) { return s.hub.PortStats() }

// SpinStats reports how many lock-poll loops were served as events (KSpin),
// how many iterations of their loops — CAS steps, the posted one included —
// those events carried, and how many yields: the steps PortStats cannot
// count, a yield being no reference. Host-side figures like PortStats.
func (s *Sim) SpinStats() (events, iterations, yields uint64) {
	return s.spins, s.spins + s.spinCAS, s.spinYields
}

// NodeOf returns the node a CPU belongs to.
func (s *Sim) NodeOf(cpu int) int { return cpu / s.cfg.CPUsPerNode }

// CurTime returns the backend's current processing time (backend context).
func (s *Sim) CurTime() event.Cycle { return s.curTime }

// Spawn registers a new simulated process running body and returns its
// frontend handle. The process is born on the ready queue; the process
// scheduler dispatches it when a CPU frees up (§3.3.2: "the simulator
// assigns processors to processes as long as there are free processors"),
// and its body first executes inside Run. Call it while Run is not
// executing; a running process forks through SpawnLocked in a KCall.
func (s *Sim) Spawn(name string, body func(*frontend.Proc)) *frontend.Proc {
	s.hub.Lock()
	defer s.hub.Unlock()
	return s.spawnLocked(name, body, false)
}

// SpawnDaemon registers a daemon process (a kernel thread such as the
// buffer-cache flusher): it runs like any process but does not keep the
// simulation alive. Call before Run.
func (s *Sim) SpawnDaemon(name string, body func(*frontend.Proc)) *frontend.Proc {
	s.hub.Lock()
	defer s.hub.Unlock()
	return s.spawnLocked(name, body, true)
}

// SetHostWork makes every process spawned after the call do real host work
// proportional to its simulated compute (frontend.Proc.SetHostWork): the
// Table 2/3 slowdown runs. Simulated results do not depend on it.
func (s *Sim) SetHostWork(f float64) { s.hostWork = f }

// ProcIsDaemon reports whether pid is a daemon process (backend context).
func (s *Sim) ProcIsDaemon(pid int) bool { return s.procs[pid].daemon }

// SpawnLocked is Spawn for callers already holding the hub lock (KCall
// closures implementing fork).
func (s *Sim) SpawnLocked(name string, body func(*frontend.Proc)) *frontend.Proc {
	return s.spawnLocked(name, body, false)
}

func (s *Sim) spawnLocked(name string, body func(*frontend.Proc), daemon bool) *frontend.Proc {
	port := s.hub.NewPortLocked(comm.StateBlocked)
	proc := frontend.New(port.ID(), name, port, timing)
	proc.SetHostWork(s.hostWork)
	pi := &procInfo{
		id: port.ID(), name: name, port: port, proc: proc,
		space: mem.NewSpace(s.phys), cpu: -1, lastCPU: -1,
		daemon: daemon,
	}
	pi.parkedReply.Done = s.curTime
	pi.parked = &pi.parkedReply
	s.procs = append(s.procs, pi)
	s.live++
	if daemon {
		s.daemons++
	}
	run := func() {
		proc.Start(port.AwaitStart())
		body(proc)
		if !proc.Exited() {
			proc.Exit()
		}
	}
	if s.hub.SpinWait() {
		// The SMP-host port (Table 3): the process is a goroutine of its
		// own, running in parallel with the backend and the other
		// frontends.
		go run()
	} else {
		port.Start(run)
	}
	s.enqueueReady(pi)
	s.dispatch(s.curTime)
	return proc
}

// Run executes the backend loop until every process has exited and no
// non-daemon tasks remain. It returns the final simulation time.
//
// Each iteration first runs every frontend the last one replied to (or
// dispatched, woke or forked) up to its next event, so that when the loop
// picks, every live process has posted, blocked or exited and the smallest
// posted (time, id) is the paper's interleaving rule by construction. Only
// the threaded ports of the SpinPorts experiment can still be running at
// the pick; Scan gates on their published clocks and the loop waits for
// them. A process whose event is that pick the moment it posts it does not
// come back here at all: serveInPlace applies the same rule (choose) and
// runs the handler on the process's coroutine.
//
// A panic leaving Run — *AbortError, *DeadlockError, or one raised by a
// task, a KCall or a frontend body, which surfaces here on the caller's
// goroutine — first unwinds every live frontend coroutine, so an abandoned
// run leaves no goroutine behind. When Run returns normally, only daemon
// processes are still suspended, waiting for the next Run.
func (s *Sim) Run() event.Cycle {
	s.hub.Lock()
	defer s.hub.Unlock()
	finished := false
	defer func() {
		if !finished {
			s.hub.StopFrontends()
		}
	}()
	armed := false
	for {
		// Host-side supervision: mirror activity into the watchdog gauge
		// (batched — a stalled loop stops updating it within 64 iterations)
		// and honor a pending abort request. Neither touches simulation
		// state, so a guarded run that never trips stays bit-identical to an
		// unguarded one.
		s.tick()
		if msg := s.abortMsg.Load(); msg != nil {
			panic(&AbortError{Reason: *msg, Cycle: uint64(s.curTime)})
		}
		// Before the termination test, so that the last process to exit is
		// resumed once more and its body returns.
		s.hub.ResumeFrontends()
		var c choice
		s.choose(&c)
		if c.done {
			break
		}
		pick, qt := c.port, c.qt
		if c.task {
			armed = false
			if s.sharded {
				// A window may run every queued task up to and including
				// the earliest frontend activity (tasks win ties, so the
				// exclusive limit is one past it). Any event a running
				// frontend posts meanwhile carries a later timestamp than
				// everything the window dispatches, so handling it after
				// the barrier matches the serial interleaving.
				limit := c.minRun
				if pick != nil {
					if pt := pick.Pending().Time; pt < limit {
						limit = pt
					}
				}
				if limit != ^event.Cycle(0) {
					limit++
				}
				if s.eng.RunWindow(limit) {
					if now := s.queue.Now(); now > s.curTime {
						s.curTime = now
					}
					continue
				}
			}
			if qt > s.curTime {
				s.curTime = qt
			}
			s.queue.Step()
			continue
		}
		if pick != nil {
			armed = false
			s.handleEvent(pick, c.until)
			continue
		}
		if c.running > 0 {
			// Threaded frontends are still executing host code. Poll their
			// lock-free clocks for a bounded time (the communicator's
			// shared-memory scan, §2), then arm the wakeup flag, re-scan
			// once, and only then sleep. The poll drops the lock, so it
			// runs only before arming: from the arming on the lock is held
			// until the sleep releases it, and a post, which takes the
			// lock, either shows in the re-scan or signals the sleeper.
			if !armed {
				act := s.hub.Activity()
				s.hub.Unlock()
				moved := false
				for i := 0; i < 20000; i++ {
					if s.hub.Activity() != act {
						moved = true
						break
					}
					if i&255 == 255 {
						runtime.Gosched()
					}
				}
				s.hub.Lock()
				if moved {
					continue
				}
				s.hub.ArmWait()
				armed = true
				continue
			}
			s.hub.WaitBackend()
			armed = false
			continue
		}
		if c.posted > 0 {
			// All posted but none eligible — impossible when nothing runs.
			panic("core: posted events but no pick with no runners")
		}
		if !c.qok {
			// Nothing runnable, nothing queued, yet processes remain: the
			// simulation can never advance. The typed panic lets a
			// supervisor (internal/guard) classify the failure.
			s.deadlockInfo = s.describeStuck()
			panic(&DeadlockError{Detail: s.deadlockInfo, Cycle: uint64(s.curTime)})
		}
		// Only daemon tasks remain but processes are blocked: let the
		// queue advance (e.g. a timer will eventually fire a wakeup).
		if qt > s.curTime {
			s.curTime = qt
		}
		s.queue.Step()
	}
	finished = true
	return s.curTime
}

// choice is one application of the interleaving rule to the posted events
// and the head of the task queue.
type choice struct {
	// done says the run is over: every process but the daemons has exited
	// and no keep-alive task remains. Nothing else is filled in then.
	done bool
	// port holds the posted event with the smallest (time, id), provided
	// no running process can still post an earlier one (comm.Hub.Scan).
	port *comm.Port
	// task says the queue's head task goes before port's event.
	task bool
	// qt is the time of the queue's head task, valid when qok.
	qt  event.Cycle
	qok bool
	// minRun is the smallest published clock among running threaded
	// frontends (^0 when none), running and posted the port counts.
	minRun          event.Cycle
	running, posted int
	// until says how long the choice of port's event stands if nothing
	// moves but that event's time: for every time below until. Set when
	// port's event is what comes next (port non-nil, task false).
	until event.Cycle
}

// choose decides what the backend does next: end the run, run the queue's
// head task, handle a posted event, or none of these (wait for running
// frontends, advance past daemon tasks, or declare deadlock — Run's
// business). The end of the run comes first, so a daemon process that the
// last exit put on a CPU gets no event handled, in the loop or in place.
// The global task queue wins ties: a task at cycle T runs before any
// frontend event at T, and before any running frontend whose published
// clock is exactly T (its next event cannot be earlier). Run's loop and
// serveInPlace both decide through here, so there is one rule.
//
// When the choice is port's event, until turns the three comparisons that
// made it into a bound on the event's time: strictly before every running
// clock, strictly before the head task (tasks win ties), and before the
// next posted event in (time, id) order. The walk along a range event
// (handleMem) moves only that event's time, so it goes on below the bound
// instead of asking again for every reference.
//
// The scan of the ports is the communicator's (comm.Hub.ScanNext), one pass
// over the live ports per choice. The queue head is asked for every time, so
// a handler that schedules a task needs no telling apart from one that does
// not.
//
// The choice is written through c (all zero on entry): it is made once per
// event, and a struct this size returned by value is copied field by field.
func (s *Sim) choose(c *choice) {
	if s.live-s.daemons == 0 && s.queue.KeepAlive() == 0 {
		c.done = true
		return
	}
	var next *comm.Port
	c.port, next, c.minRun, c.running, c.posted = s.hub.ScanNext()
	c.qt, c.qok = s.queue.NextTime()
	c.task = c.qok && c.qt <= c.minRun && (c.port == nil || c.qt <= c.port.Pending().Time)
	if c.port != nil && !c.task {
		c.until = c.minRun
		if c.qok && c.qt < c.until {
			c.until = c.qt
		}
		if next != nil {
			t := next.Pending().Time
			if c.port.ID() < next.ID() {
				t++ // port wins the tie
			}
			if t < c.until {
				c.until = t
			}
		}
	}
}

// serveInPlace is the communicator's service function (comm.Hub.SetService):
// a coroutine process that has just posted asks whether its event is what
// Run's loop would handle next — the loop is suspended in ResumeFrontends,
// resuming this very process — and if so the handler runs here, on the
// process's coroutine, and the two switches and the loop turn between them
// never happen. The order of events is the loop's: choose picks port only
// when every other process is suspended at a post with a larger (time, id),
// blocked or exited (a sibling the loop has yet to resume is still
// StateRunning and holds Scan back), so nothing can be posted before this
// event, and a queue task due at or before it sends the process back to
// the loop, as do the end of the run (a daemon's event stays posted for
// the next Run) and a pending abort, which only the loop raises.
func (s *Sim) serveInPlace(port *comm.Port) bool {
	if s.abortMsg.Load() != nil {
		return false
	}
	var c choice
	s.choose(&c)
	if c.done || c.task || c.port != port {
		return false
	}
	s.tick()
	s.handleEvent(port, c.until)
	return true
}

// tick advances the watchdog gauge by one step of backend work: a loop
// iteration or an event served in place.
func (s *Sim) tick() {
	s.iter++
	if s.iter&63 == 0 {
		s.progress.Store(s.iter)
	}
}

// ticks is n calls of tick: the steps a walk takes in one go.
func (s *Sim) ticks(n uint64) {
	was := s.iter
	s.iter += n
	if was>>6 != s.iter>>6 {
		s.progress.Store(s.iter &^ 63)
	}
}

func (s *Sim) describeStuck() string {
	out := ""
	for _, p := range s.procs {
		if !p.exited {
			out += fmt.Sprintf("[proc %d %q state=%v cpu=%d ready=%v] ",
				p.id, p.name, p.port.State(), p.cpu, p.inReady)
		}
	}
	if out == "" {
		out = "(no live procs)"
	}
	return out
}

// ScheduleTask schedules fn in the backend's global event queue at delay
// cycles after the current processing time (backend context). Non-daemon
// tasks keep the simulation alive; daemon tasks (periodic timers) do not.
func (s *Sim) ScheduleTask(delay event.Cycle, label string, daemon bool, fn func()) {
	when := s.curTime + delay
	if qn := s.queue.Now(); when < qn {
		when = qn
	}
	if daemon {
		s.queue.At(when, label, fn)
		return
	}
	// The queue does the keep-alive accounting itself (released on
	// dispatch), so no per-task wrapper closure is allocated here.
	s.queue.AtKeep(when, label, fn)
}

// Counters returns a merged snapshot of backend statistics (call after
// Run).
func (s *Sim) Counters() *stats.Counters {
	var c stats.Counters
	s.model.AddCounters(&c)
	c.Add(s.ownCounters())
	c.Inc("sched.ctxswitches", s.ctxSwitches)
	c.Inc("sched.preemptions", s.preemptions)
	c.Inc("backend.tasks", s.queue.Dispatched())
	return &c
}

// IdleInterrupt exposes interrupt-handler time charged to idle CPUs.
func (s *Sim) IdleInterrupt() *stats.TimeAccount { return &s.idleIntr }

// Procs returns the frontend handles of all spawned processes (for
// after-run reporting).
func (s *Sim) Procs() []*frontend.Proc {
	out := make([]*frontend.Proc, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.proc
	}
	return out
}

// TotalAccount merges every process's time account plus idle interrupt
// time — the Table 1 numerator and denominator.
func (s *Sim) TotalAccount() stats.TimeAccount {
	var a stats.TimeAccount
	for _, p := range s.procs {
		a.Add(p.proc.Account())
	}
	a.Add(&s.idleIntr)
	return a
}
