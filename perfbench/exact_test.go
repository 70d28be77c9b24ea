package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

// heldOutSeed was never used while tuning the benchmark; correctness must
// hold on it too.
const heldOutSeed = 1000003

// simOnce builds a workload's stack, warms it up exactly as a measured run
// does, and runs the deterministic sim pass.
func simOnce(t *testing.T, wl *workload, seed int64) simPass {
	t.Helper()
	inst, err := wl.build(seed)
	if err != nil {
		t.Fatalf("%s: build: %v", wl.name, err)
	}
	defer inst.close()
	for i := 0; i < wl.warmup; i++ {
		r, err := inst.send(context.Background(), i)
		if err != nil {
			t.Fatalf("%s: warm-up %d: %v", wl.name, i, err)
		}
		if ok, _ := inst.check(i, r, false); !ok {
			t.Fatalf("%s: warm-up %d decrypted wrong", wl.name, i)
		}
	}
	return runSim(wl, inst)
}

// tracedCycles runs a short traced pass and returns its simulated-cycle
// metrics: the per-op co-processor cycles and the program schedule.
func tracedCycles(t *testing.T, wl *workload, seed int64) map[string]float64 {
	t.Helper()
	rep := newReport()
	if err := runTraced(wl, seed, time.Second, rep); err != nil {
		t.Fatalf("%s: traced run: %v", wl.name, err)
	}
	if !rep.res.Correct || rep.res.Failed != 0 {
		t.Fatalf("%s: traced run failed %d of %d checks", wl.name, rep.res.Failed, rep.res.Attempted)
	}
	out := map[string]float64{}
	for name, m := range rep.res.Metrics {
		if m.Unit == "cycles" {
			out[name] = m.Value
		}
	}
	return out
}

// TestSimPassExact pins the benchmark's exactness contract: on one seed the
// sim pass repeats its simulated metrics and result quality bit for bit,
// the traced co-processor cycles repeat exactly, and a held-out seed is
// served correctly.
func TestSimPassExact(t *testing.T) {
	for _, name := range names() {
		wl := workloads[name]
		t.Run(name, func(t *testing.T) {
			a, b := simOnce(t, wl, 1), simOnce(t, wl, 1)
			if a.failed != 0 || b.failed != 0 {
				t.Fatalf("sim pass failed %d and %d requests", a.failed, b.failed)
			}
			if a != b {
				t.Fatalf("sim pass differs between runs of one seed:\n%+v\n%+v", a, b)
			}
			if a.latency <= 0 || a.busy <= 0 || a.quality <= 0 {
				t.Fatalf("sim pass reports a zero metric: %+v", a)
			}
			ca, cb := tracedCycles(t, wl, 1), tracedCycles(t, wl, 1)
			for k, v := range ca {
				if cb[k] != v {
					t.Errorf("%s: %v then %v", k, v, cb[k])
				}
			}
			if !strings.Contains(strings.Join(keys(ca), " "), "hwsim.cycles.ntt") {
				t.Errorf("traced run reported no hwsim.cycles metrics: %v", keys(ca))
			}
			if h := simOnce(t, wl, heldOutSeed); h.failed != 0 {
				t.Fatalf("held-out seed: %d of %d requests failed", h.failed, h.attempted)
			}
		})
	}
}

func keys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
