package core

import (
	"strings"
	"testing"
)

// A sharded configuration without a conservative quantum is rejected at
// construction with an error that names the missing piece — silently
// running serial (or worse, with a zero quantum) would hide a
// misassembled machine.
func TestShardsRequireLookahead(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted Shards=4 with no ShardLookahead")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "ShardLookahead") || !strings.Contains(msg, "Shards=4") {
			t.Fatalf("unhelpful rejection: %v", r)
		}
	}()
	cfg := testConfig(1)
	cfg.Shards = 4
	New(cfg)
}

// Lane maps affinity keys onto the non-home lanes round-robin, and
// collapses everything onto the home lane when the backend is serial —
// so components capture a Lane at setup and run unchanged either way.
func TestLaneAffinityMapping(t *testing.T) {
	serial := New(testConfig(1))
	for _, aff := range []int{0, 1, 7} {
		if serial.Lane(aff) != serial.Lane(-1) {
			t.Fatalf("serial Lane(%d) is not the home lane", aff)
		}
	}

	cfg := testConfig(1)
	cfg.Shards = 3
	cfg.ShardLookahead = 100
	s := New(cfg)
	home := s.Lane(-1)
	if s.Lane(0) == s.Lane(1) {
		t.Fatal("Lane(0) and Lane(1) share a lane on a three-lane backend")
	}
	// Affinity keys cycle over the non-home lanes only: the home lane is
	// reserved for shared machine state.
	for aff := 0; aff < 6; aff++ {
		l := s.Lane(aff)
		if l == home {
			t.Fatalf("Lane(%d) is the home lane", aff)
		}
		if l != s.Lane(aff%2) {
			t.Fatalf("Lane(%d) is not Lane(%d)", aff, aff%2)
		}
	}
}
