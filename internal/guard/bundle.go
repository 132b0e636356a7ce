package guard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"compass/internal/event"
)

// RunSpec is a CLI-level description of one run: everything `compassrun
// -repro` needs to rebuild the configuration and runner and replay the
// failure exactly. Fields mirror compassrun's flags, the ones every verb
// shares; the simulation is a pure function of them, so replaying a spec
// reproduces a deterministic failure bit-for-bit. A zero size means the
// workload's default.
type RunSpec struct {
	Workload  string `json:"workload"`
	CPUs      int    `json:"cpus"`
	Arch      string `json:"arch"`
	Nodes     int    `json:"nodes"`
	Placement string `json:"placement"`
	Sched     string `json:"sched"`
	Preempt   bool   `json:"preempt,omitempty"`
	RTC       bool   `json:"rtc"`
	Agents    int    `json:"agents"`
	Tx        int    `json:"tx"`
	Rows      int    `json:"rows"`
	Requests  int    `json:"requests"`
	// WarmTx (tpcc) and WarmReqs (specweb), when > 0, put a warm phase of
	// that size before the measured one: the boundary a warm-start
	// checkpoint is cut at.
	WarmTx   int `json:"warmtx,omitempty"`
	WarmReqs int `json:"warmreqs,omitempty"`
	// Dirs scales the specweb fileset; Trace names a request trace file
	// that a specweb run plays instead of generating its requests.
	Dirs  int    `json:"dirs,omitempty"`
	Trace string `json:"trace,omitempty"`
	// N and Iters scale the sor grid and its sweeps.
	N       int    `json:"n,omitempty"`
	Iters   int    `json:"iters,omitempty"`
	Syncd   uint64 `json:"syncd,omitempty"`
	Migrate int    `json:"migrate,omitempty"`
	// Shards is the backend lane count (host-side performance knob; a
	// sharded run is byte-identical to serial, so repros may drop it).
	Shards int `json:"shards,omitempty"`
	// Faults and Load are the -faults / -load spec strings (empty = none).
	Faults string `json:"faults,omitempty"`
	Load   string `json:"load,omitempty"`
	// Seed is the effective fault seed of the failed point (campaigns stamp
	// the per-point seed here, overriding the Faults string's base seed).
	Seed uint64 `json:"seed"`
	// Segments and AutoCkptDir describe segmented auto-checkpointed runs.
	Segments    int    `json:"segments,omitempty"`
	AutoCkptDir string `json:"autockpt_dir,omitempty"`
	// Chaos is the -chaos injection spec, so a repro re-injects the fault.
	Chaos string `json:"chaos,omitempty"`
}

// Manifest is a crash-repro bundle's manifest.json.
type Manifest struct {
	// Spec rebuilds the run.
	Spec RunSpec `json:"spec"`
	// Label names the failed attempt (workload or seed label).
	Label string `json:"label"`
	// Kind/Reason/Cycle echo the classified Abort.
	Kind   string `json:"kind"`
	Reason string `json:"reason"`
	Cycle  uint64 `json:"cycle"`
}

const (
	manifestFile = "manifest.json"
	stackFile    = "stack.txt"
	eventsFile   = "events.txt"
)

// WriteBundle writes a crash-repro bundle: manifest.json, stack.txt and the
// dispatch-ring tail as events.txt. Returns the bundle directory.
func WriteBundle(dir string, m Manifest, stack []byte, ring []event.DispatchRecord) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mj, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), append(mj, '\n'), 0o644); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, stackFile), stack, 0o644); err != nil {
		return "", err
	}
	var ev []byte
	for _, r := range ring {
		ev = append(ev, fmt.Sprintf("%d %s\n", r.When, r.Label)...)
	}
	if err := os.WriteFile(filepath.Join(dir, eventsFile), ev, 0o644); err != nil {
		return "", err
	}
	return dir, nil
}

// ReadBundle loads a bundle's manifest.
func ReadBundle(dir string) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("guard: bundle manifest: %w", err)
	}
	return m, nil
}
