// Command perfbench is the repository benchmark: four seeded closed-loop
// workloads driven through the public serving API (cluster client, wire
// protocol, engine, co-processor model), every result decrypted and checked.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// replays the same seeded requests layer by layer and reports per-layer
// metrics. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ckks"
	"repro/internal/fv"
)

// timedWindows is how many consecutive windows the timed phase is split into.
const timedWindows = 10

// runLimit bounds one invocation; the watchdog exits non-zero past it.
const runLimit = 170 * time.Second

// reply is what one request returns to the client, before checking.
type reply struct {
	cts []*fv.Ciphertext // BFV results: one for an op, the outputs of a program
	ck  *ckks.Ciphertext // CKKS result
	// simCycles is the request's simulated latency: the response's compute
	// time for an op, the program makespan, or the sum over a pipeline's ops.
	simCycles uint64
}

// instance is one built serving stack for a workload, holding its seeded
// request sequence. Request i is the i-th of that sequence (it wraps).
type instance interface {
	// send runs request i through the workload's serving path.
	send(ctx context.Context, i int) (reply, error)
	// check decrypts r, compares it with request i's plaintext reference
	// and, when quality is set, also returns the result's quality in bits.
	check(i int, r reply, quality bool) (ok bool, bits float64)
	// busy is the simulated co-processor busy time so far, in cycles.
	busy() uint64
	env() stackEnv
	close()
}

// stackEnv is the part of the run environment a stack decides.
type stackEnv struct {
	poolWorkers   int
	engineWorkers int // per node
	nodes         int
}

type workload struct {
	name       string
	submitters int
	setupReps  int // stack builds per run; setup_s is their median
	warmup     int // requests sent sequentially as the last step of setup
	simReqs    int // requests of the deterministic sim pass
	build      func(seed int64) (instance, error)
	// trace measures the per-layer metrics on a built instance.
	trace func(t *tracer, inst instance) error
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func names() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates phase counts and metrics and prints them.
type report struct {
	res   result
	order []string
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, dup := r.res.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) phase(name string, attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
	if failed > 0 {
		r.res.Correct = false
	}
	fmt.Printf("phase %-8s attempted %d succeeded %d failed %d\n", name, attempted, attempted-failed, failed)
}

func (r *report) note(format string, args ...any) {
	fmt.Printf("note: "+format+"\n", args...)
}

func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	fmt.Printf("FAIL: "+format+"\n", args...)
}

func (r *report) print() {
	for _, n := range r.order {
		m := r.res.Metrics[n]
		fmt.Printf("metric %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for n, m := range r.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s is not a number", n)
			delete(r.res.Metrics, n)
		}
	}
	if r.res.Attempted < 1 {
		r.res.Correct = false
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(names(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(names(), ", "))
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runLimit)
		os.Exit(3)
	})
	dur := time.Duration(*seconds) * time.Second
	var err error
	rep := newReport()
	if *trace == 1 {
		err = runTraced(wl, *seed, dur, rep)
	} else {
		err = runEndToEnd(wl, *seed, dur, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print()
	if !rep.res.Correct {
		os.Exit(1)
	}
}

// printEnv records what a noisy run must be recognised by.
func printEnv(wl *workload, seed int64, env stackEnv) {
	fmt.Printf("env workload=%s seed=%d nproc=%d gomaxprocs=%d pool_workers=%d nodes=%d engine_workers_per_node=%d submitters=%d go=%s\n",
		wl.name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), env.poolWorkers, env.nodes,
		env.engineWorkers, wl.submitters, runtime.Version())
}

// setup builds the workload's stack wl.setupReps times, each build ending
// with the sequential warm-up requests, and keeps the last. It returns the
// stack and every build's duration, raw and scaled to the reference host.
func setup(wl *workload, seed int64, rep *report) (instance, []float64, []float64, error) {
	var (
		inst        instance
		raw, scaled []float64
		failed      int
	)
	speed := newSpeedMeter(calSlice / 2)
	for k := 0; k < wl.setupReps; k++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = wl.build(seed); err != nil {
			return nil, nil, nil, err
		}
		for i := 0; i < wl.warmup; i++ {
			r, err := inst.send(context.Background(), i)
			if err != nil {
				inst.close()
				return nil, nil, nil, fmt.Errorf("warm-up request %d: %w", i, err)
			}
			if ok, _ := inst.check(i, r, false); !ok {
				failed++
			}
		}
		t := time.Since(start).Seconds()
		raw = append(raw, t)
		scaled = append(scaled, t*speed.next())
	}
	rep.phase("warm-up", wl.setupReps*wl.warmup, failed)
	return inst, raw, scaled, nil
}

// simPass sends wl.simReqs requests one at a time — one submitter, a fixed
// count, deterministic worker assignment — so the simulated accounting and
// result quality repeat exactly for a seed.
type simPass struct {
	attempted, failed int
	latency           float64 // mean simulated cycles per request
	busy              float64 // simulated busy cycles per request
	quality           float64 // minimum quality bits over the results
}

func runSim(wl *workload, inst instance) simPass {
	sp := simPass{quality: math.Inf(1)}
	b0 := inst.busy()
	var lat uint64
	for i := 0; i < wl.simReqs; i++ {
		sp.attempted++
		r, err := inst.send(context.Background(), i)
		if err != nil {
			sp.failed++
			continue
		}
		ok, bits := inst.check(i, r, true)
		if !ok {
			sp.failed++
		}
		lat += r.simCycles
		sp.quality = math.Min(sp.quality, bits)
	}
	sp.latency = float64(lat) / float64(wl.simReqs)
	sp.busy = float64(inst.busy()-b0) / float64(wl.simReqs)
	return sp
}

// loopStats is the outcome of one closed-loop phase.
type loopStats struct {
	attempted, failed int
	latencies         []float64 // ms, successful requests only
	elapsed           time.Duration
	cpu               time.Duration
}

// closedLoop runs wl.submitters clients for d, each sending its next
// request only after checking the previous reply. Submitter s sends
// requests s, s+S, s+2S, ... of the seeded sequence, starting at offset.
// wrap, when set, brackets every request (the traced run's span hook).
func closedLoop(wl *workload, inst instance, d time.Duration, offset int, wrap func(func())) loopStats {
	var (
		mu sync.Mutex
		ls loopStats
		wg sync.WaitGroup
	)
	if wrap == nil {
		wrap = func(f func()) { f() }
	}
	c0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for s := 0; s < wl.submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var lats []float64
			attempted, failed := 0, 0
			for j := 0; time.Now().Before(deadline); j++ {
				i := offset + s + j*wl.submitters
				attempted++
				var (
					r   reply
					err error
					lat time.Duration
				)
				wrap(func() {
					t := time.Now()
					r, err = inst.send(context.Background(), i)
					lat = time.Since(t)
				})
				if err != nil {
					failed++
					continue
				}
				if ok, _ := inst.check(i, r, false); !ok {
					failed++
					continue
				}
				lats = append(lats, ms(lat))
			}
			mu.Lock()
			ls.attempted += attempted
			ls.failed += failed
			ls.latencies = append(ls.latencies, lats...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	ls.elapsed = time.Since(start)
	ls.cpu = cpuTime() - c0
	return ls
}

func runEndToEnd(wl *workload, seed int64, d time.Duration, rep *report) error {
	inst, setupRaw, setupScaled, err := setup(wl, seed, rep)
	if err != nil {
		return err
	}
	defer inst.close()
	printEnv(wl, seed, inst.env())

	sp := runSim(wl, inst)
	rep.phase("sim", sp.attempted, sp.failed)

	// The timed phase is timedWindows consecutive closed-loop windows, each
	// scaled by the host speed read on either side of it.
	var (
		all               loopStats
		rates, cpus, lats []float64
		rawRates, rawCPUs []float64
		offset            = wl.simReqs
		speed             = newSpeedMeter(calSlice)
		t0                = readCPUTicks()
	)
	for k := 0; k < timedWindows; k++ {
		w := closedLoop(wl, inst, d/timedWindows, offset, nil)
		s := speed.next()
		offset += w.attempted
		all = addLoop(all, w)
		n := float64(len(w.latencies))
		if n == 0 {
			continue
		}
		rawRates = append(rawRates, n/w.elapsed.Seconds())
		rawCPUs = append(rawCPUs, ms(w.cpu)/n)
		rates = append(rates, rawRates[len(rawRates)-1]/s)
		cpus = append(cpus, rawCPUs[len(rawCPUs)-1]*s)
		for _, l := range w.latencies {
			lats = append(lats, l*s)
		}
	}
	steal := stealPct(t0, readCPUTicks())
	rep.phase("timed", all.attempted, all.failed)
	if len(lats) == 0 {
		return fmt.Errorf("no request succeeded in the timed phase")
	}
	p90 := quantile(lats, 0.9)
	fmt.Printf("timed phase: %d samples, %d beyond p90; host steal %.2f%%; host speed readings %.3f\n",
		len(lats), beyond(lats, p90), steal, speed.seen)
	var deciles []float64
	for q := 1; q < 10; q++ {
		deciles = append(deciles, quantile(lats, float64(q)/10))
	}
	fmt.Printf("latency deciles (ms): %.4g\n", deciles)
	fmt.Printf("raw host figures: req_per_s %.6g, latency_p50_ms %.6g, latency_p90_ms %.6g, cpu_ms_per_req %.6g, setup_s %.6g\n",
		median(rawRates), median(all.latencies), quantile(all.latencies, 0.9), median(rawCPUs), median(setupRaw))

	rep.set("req_per_s", median(rates), "1/s")
	rep.set("latency_p50_ms", median(lats), "ms")
	rep.set("latency_p90_ms", p90, "ms")
	rep.set("cpu_ms_per_req", median(cpus), "ms")
	rep.set("sim_latency_cycles", sp.latency, "cycles")
	rep.set("sim_busy_cycles_per_req", sp.busy, "cycles")
	rep.set("setup_s", median(setupScaled), "s")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.set("quality_bits", sp.quality, "bits")
	return nil
}
