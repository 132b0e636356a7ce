package loadgen

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"compass/internal/arrival"
)

// Config is the whole load plan: a seed, a global request budget, and
// one or more traffic classes. Parse one from a -load spec with
// ParseSpec; a parsed Config is fully concrete (defaults applied,
// validated) and String renders it back to a spec that re-parses to the
// identical Config.
type Config struct {
	// Seed keys every draw stream. Two runs with equal Seed (and equal
	// machine configuration) offer identical traffic.
	Seed uint64
	// Requests is the global request budget shared by all classes: the
	// generator stops offering new sessions once this many requests have
	// been launched, then drains and shuts the server down.
	Requests uint64
	// Classes are the traffic classes.
	Classes []ClassConfig
}

// ClassConfig is one traffic class: an aggregate client population with
// its arrival process, popularity law and size/think distributions. The
// generator keeps O(1) state per class regardless of Clients.
type ClassConfig struct {
	// Name labels the class in the latency table and names its fileset
	// directory.
	Name string
	// Clients is the simulated client population. It sets the session
	// arrival rate (Clients/Interval) without allocating per-client
	// state — a million clients cost the same memory as ten.
	Clients uint64
	// Interval is the mean cycles between sessions for one client.
	Interval float64
	// Rate, when > 0, overrides Clients/Interval: session arrivals per
	// million cycles.
	Rate float64
	// Burst is the requests per session (think-separated).
	Burst int
	// ThinkMin/ThinkMax/ThinkAlpha shape the bounded-Pareto think gap
	// between a session's requests, in cycles.
	ThinkMin, ThinkMax uint64
	ThinkAlpha         float64
	// Objects is the catalog size; requests pick objects by the Zipf law.
	Objects int
	// SizeMin/SizeMax/SizeAlpha shape the bounded-Pareto object sizes in
	// bytes (static filesets only; dynamic catalogs size themselves).
	SizeMin, SizeMax uint64
	SizeAlpha        float64
	// Zipf is the popularity exponent over the catalog.
	Zipf float64
	// Flash are one-shot rate windows in absolute simulated cycles: while
	// Start <= now < Start+Dur the class arrival rate is multiplied by
	// Mult (a "flash crowd"). Windows are absolute so a run resumed from
	// a checkpoint mid-window sees the same remaining surge.
	Flash []Window
	// MMPP is a periodic two-state rate modulation (Markov-modulated
	// Poisson process flavor): for On cycles out of every Period the rate
	// is multiplied by Mult. Period 0 disables it.
	MMPP MMPP
}

// Window is one flash-crowd window. The arrival process (package
// arrival, the generator's lane side) reads it, so it is declared there.
type Window = arrival.Window

// MMPP is the periodic rate modulation. The zero value is off.
type MMPP = arrival.MMPP

// ApplyDefaults fills the knobs left at zero. Population (Clients/Rate)
// is never defaulted — a class must say how much traffic it offers.
func (c *Config) ApplyDefaults() {
	if c.Requests == 0 {
		c.Requests = 100
	}
	for i := range c.Classes {
		cl := &c.Classes[i]
		if cl.Interval == 0 {
			cl.Interval = 1e6
		}
		if cl.Burst == 0 {
			cl.Burst = 1
		}
		if cl.ThinkMin == 0 {
			cl.ThinkMin = 5_000
		}
		if cl.ThinkMax == 0 {
			cl.ThinkMax = 200_000
		}
		if cl.ThinkAlpha == 0 {
			cl.ThinkAlpha = 1.5
		}
		if cl.Objects == 0 {
			cl.Objects = 32
		}
		if cl.SizeMin == 0 {
			cl.SizeMin = 256
		}
		if cl.SizeMax == 0 {
			cl.SizeMax = 65_536
		}
		if cl.SizeAlpha == 0 {
			cl.SizeAlpha = 1.2
		}
		if cl.Zipf == 0 {
			cl.Zipf = 0.9
		}
	}
}

// Validate rejects plans the generator cannot run deterministically.
func (c Config) Validate() error {
	if len(c.Classes) == 0 {
		return fmt.Errorf("loadgen: plan has no traffic classes")
	}
	seen := make(map[string]bool, len(c.Classes))
	for _, cl := range c.Classes {
		if cl.Name == "" {
			return fmt.Errorf("loadgen: class without a name")
		}
		if seen[cl.Name] {
			return fmt.Errorf("loadgen: duplicate class %q", cl.Name)
		}
		seen[cl.Name] = true
		if cl.Clients == 0 && cl.Rate <= 0 {
			return fmt.Errorf("loadgen: class %q offers no traffic (set clients or rate)", cl.Name)
		}
		if bad(cl.Rate) || cl.Rate < 0 {
			return fmt.Errorf("loadgen: class %q: rate %v invalid", cl.Name, cl.Rate)
		}
		if bad(cl.Interval) || cl.Interval <= 0 {
			return fmt.Errorf("loadgen: class %q: interval %v invalid", cl.Name, cl.Interval)
		}
		if cl.Burst < 1 {
			return fmt.Errorf("loadgen: class %q: burst %d invalid", cl.Name, cl.Burst)
		}
		if cl.ThinkMax < cl.ThinkMin || cl.ThinkMin == 0 {
			return fmt.Errorf("loadgen: class %q: think bounds [%d,%d] invalid", cl.Name, cl.ThinkMin, cl.ThinkMax)
		}
		if bad(cl.ThinkAlpha) || cl.ThinkAlpha <= 0 {
			return fmt.Errorf("loadgen: class %q: think alpha %v invalid", cl.Name, cl.ThinkAlpha)
		}
		if cl.Objects < 1 {
			return fmt.Errorf("loadgen: class %q: objects %d invalid", cl.Name, cl.Objects)
		}
		if cl.SizeMax < cl.SizeMin || cl.SizeMin == 0 {
			return fmt.Errorf("loadgen: class %q: size bounds [%d,%d] invalid", cl.Name, cl.SizeMin, cl.SizeMax)
		}
		if bad(cl.SizeAlpha) || cl.SizeAlpha <= 0 {
			return fmt.Errorf("loadgen: class %q: size alpha %v invalid", cl.Name, cl.SizeAlpha)
		}
		if bad(cl.Zipf) || cl.Zipf < 0 {
			return fmt.Errorf("loadgen: class %q: zipf %v invalid", cl.Name, cl.Zipf)
		}
		for _, w := range cl.Flash {
			if w.Dur == 0 || bad(w.Mult) || w.Mult <= 0 {
				return fmt.Errorf("loadgen: class %q: flash window %d:%d:%v invalid", cl.Name, w.Start, w.Dur, w.Mult)
			}
		}
		if m := cl.MMPP; m.Period > 0 {
			if m.On == 0 || m.On > m.Period || bad(m.Mult) || m.Mult <= 0 {
				return fmt.Errorf("loadgen: class %q: mmpp %d:%d:%v invalid", cl.Name, m.Period, m.On, m.Mult)
			}
		} else if m.On != 0 || m.Mult != 0 {
			return fmt.Errorf("loadgen: class %q: mmpp needs a period", cl.Name)
		}
	}
	return nil
}

// bad reports a float that would poison the arrival process: NaN and
// infinities compare uselessly against thresholds downstream.
func bad(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }

// apportion splits total across weights proportionally, by cumulative
// rounding: class i gets round(total·W_i/W) − round(total·W_{i−1}/W)
// with the running cumulative clamped monotone and the last pinned to
// total, so the shares always sum to total exactly. Deterministic for a
// given (total, weights) — it never consults run state — so every shard
// count, and a resume at any shard count, derives the same split.
func apportion(total uint64, weights []float64) []uint64 {
	shares := make([]uint64, len(weights))
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	var acc float64
	var prev uint64
	for i, w := range weights {
		acc += w
		cum := uint64(math.Round(float64(total) * (acc / wsum)))
		if i == len(weights)-1 || cum > total {
			cum = total
		}
		if cum < prev {
			cum = prev
		}
		shares[i] = cum - prev
		prev = cum
	}
	return shares
}

// sessionsPerCycle is the class's base arrival rate.
func (c ClassConfig) sessionsPerCycle() float64 {
	if c.Rate > 0 {
		return c.Rate / 1e6
	}
	return float64(c.Clients) / c.Interval
}

// ParseSpec parses a -load specification: semicolon-separated sections,
// the first holding globals, each further one a class introduced by its
// class= key; keys within a section are comma-separated key=value pairs
// (the -faults grammar). Example:
//
//	seed=42,requests=400;class=static,clients=1000000,interval=1e9,burst=2,flash=2e6:4e6:8
//
// Global keys: seed, requests. Class keys: class (the name), clients,
// interval, rate, burst, think.min, think.max, think.alpha, objects,
// size.min, size.max, size.alpha, zipf, flash=start:dur:mult
// (repeatable), mmpp=period:on:mult. Defaults are applied and the plan
// validated, so a returned Config is ready to run.
func ParseSpec(spec string) (Config, error) {
	var c Config
	if strings.TrimSpace(spec) == "" {
		return Config{}, fmt.Errorf("loadgen: empty spec")
	}
	for si, section := range strings.Split(spec, ";") {
		var cl *ClassConfig
		for _, kv := range strings.Split(section, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return Config{}, fmt.Errorf("loadgen: bad spec entry %q (want key=value)", kv)
			}
			k = strings.TrimSpace(k)
			v = strings.TrimSpace(v)
			if k == "class" {
				if cl != nil {
					return Config{}, fmt.Errorf("loadgen: section %d names two classes", si)
				}
				if v == "" {
					return Config{}, fmt.Errorf("loadgen: empty class name")
				}
				c.Classes = append(c.Classes, ClassConfig{Name: v})
				cl = &c.Classes[len(c.Classes)-1]
				continue
			}
			var err error
			if cl == nil {
				switch k {
				case "seed":
					c.Seed, err = strconv.ParseUint(v, 0, 64)
				case "requests":
					c.Requests, err = count(v)
				default:
					return Config{}, fmt.Errorf("loadgen: key %q before any class= (globals are seed, requests)", k)
				}
			} else {
				switch k {
				case "clients":
					cl.Clients, err = count(v)
				case "interval":
					cl.Interval, err = positive(v)
				case "rate":
					cl.Rate, err = positive(v)
				case "burst":
					cl.Burst, err = strconv.Atoi(v)
				case "think.min":
					cl.ThinkMin, err = count(v)
				case "think.max":
					cl.ThinkMax, err = count(v)
				case "think.alpha":
					cl.ThinkAlpha, err = positive(v)
				case "objects":
					cl.Objects, err = strconv.Atoi(v)
				case "size.min":
					cl.SizeMin, err = count(v)
				case "size.max":
					cl.SizeMax, err = count(v)
				case "size.alpha":
					cl.SizeAlpha, err = positive(v)
				case "zipf":
					cl.Zipf, err = positive(v)
				case "flash":
					var w Window
					w, err = parseWindow(v)
					cl.Flash = append(cl.Flash, w)
				case "mmpp":
					var w Window
					if w, err = parseWindow(v); err == nil {
						cl.MMPP = MMPP{Period: w.Start, On: w.Dur, Mult: w.Mult}
					}
				default:
					return Config{}, fmt.Errorf("loadgen: unknown class key %q", k)
				}
			}
			if err != nil {
				return Config{}, fmt.Errorf("loadgen: bad value for %q: %v", k, err)
			}
		}
	}
	c.ApplyDefaults()
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// count parses a non-negative integer, accepting float notation (1e6)
// for cycle-scale magnitudes.
func count(v string) (uint64, error) {
	if n, err := strconv.ParseUint(v, 0, 64); err == nil {
		return n, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if bad(f) || f < 0 || f >= (1<<63) {
		return 0, fmt.Errorf("count %v out of range", f)
	}
	return uint64(f), nil
}

// positive parses a finite positive float.
func positive(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if bad(f) || f <= 0 {
		return 0, fmt.Errorf("value %v not a positive real", f)
	}
	return f, nil
}

// parseWindow parses start:dur:mult.
func parseWindow(v string) (Window, error) {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return Window{}, fmt.Errorf("window %q: want start:dur:mult", v)
	}
	start, err := count(parts[0])
	if err != nil {
		return Window{}, err
	}
	dur, err := count(parts[1])
	if err != nil {
		return Window{}, err
	}
	mult, err := positive(parts[2])
	if err != nil {
		return Window{}, err
	}
	return Window{Start: start, Dur: dur, Mult: mult}, nil
}

// String renders the canonical spec: ParseSpec(c.String()) returns a
// Config equal to c for any valid concrete plan (the round trip the
// fuzz harness enforces).
func (c Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d,requests=%d", c.Seed, c.Requests)
	for _, cl := range c.Classes {
		fmt.Fprintf(&b, ";class=%s,clients=%d,interval=%s", cl.Name, cl.Clients, g(cl.Interval))
		if cl.Rate > 0 {
			fmt.Fprintf(&b, ",rate=%s", g(cl.Rate))
		}
		fmt.Fprintf(&b, ",burst=%d,think.min=%d,think.max=%d,think.alpha=%s",
			cl.Burst, cl.ThinkMin, cl.ThinkMax, g(cl.ThinkAlpha))
		fmt.Fprintf(&b, ",objects=%d,size.min=%d,size.max=%d,size.alpha=%s,zipf=%s",
			cl.Objects, cl.SizeMin, cl.SizeMax, g(cl.SizeAlpha), g(cl.Zipf))
		for _, w := range cl.Flash {
			fmt.Fprintf(&b, ",flash=%d:%d:%s", w.Start, w.Dur, g(w.Mult))
		}
		if cl.MMPP.Period > 0 {
			fmt.Fprintf(&b, ",mmpp=%d:%d:%s", cl.MMPP.Period, cl.MMPP.On, g(cl.MMPP.Mult))
		}
	}
	return b.String()
}

// g formats a float with exact round-trip precision.
func g(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
