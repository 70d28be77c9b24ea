package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/obs"
	"repro/internal/program"
)

// The traced run measures every layer from outside: it times calls into
// each layer's public entry point on the workload's seeded requests, top
// down, and reads the layers' own counters around them. A layer's self
// time is the median at its entry minus the median at the next entry down.
//
// Share of the run length d spent in each traced phase.
const (
	overheadShare = 0.45 // alternating untraced/traced closed-loop windows
	ladderShare   = 0.25 // layer-by-layer replay
	engineShare   = 0.15 // closed loop at the engine entry
)

// tracer carries the traced run's report and budget to the workload hooks.
type tracer struct {
	rep       *report
	d         time.Duration
	wl        *workload
	attempted int
	failed    int
	// engines whose Stats the engine-layer metrics are read from.
	engines []*engine.Engine
	// unresolved counts derived overheads that came out negative.
	unresolved int
}

// verdict reports whether one traced call returned the right result; the
// call itself is timed, the check is not.
type verdict func() bool

// rung is one layer entry for one request.
type rung func(ctx context.Context) (verdict, error)

// ladder is one request at each layer entry, top down: cluster.Client,
// cloud.MuxClient, engine, core.Accelerator. A nil rung is an entry the
// request's path does not have.
type ladder [4]rung

const (
	atCluster = iota
	atMux
	atEngine
	atCore
)

// call times one rung and checks its result.
func (t *tracer) call(r rung) (time.Duration, bool) {
	start := time.Now()
	v, err := r(context.Background())
	d := time.Since(start)
	t.attempted++
	if err != nil || !v() {
		t.failed++
		return d, false
	}
	return d, true
}

// climb replays ladders mk(0), mk(1), ... within budget (at least min of
// them) and returns the per-entry samples in microseconds.
func (t *tracer) climb(budget time.Duration, min int, mk func(i int) ladder) [4][]float64 {
	var out [4][]float64
	stop := time.Now().Add(budget)
	for i := 0; i < min || time.Now().Before(stop); i++ {
		l := mk(i)
		for k, r := range l {
			if r == nil {
				continue
			}
			if d, ok := t.call(r); ok {
				out[k] = append(out[k], us(d))
			}
		}
	}
	return out
}

// overhead sets name to median(upper) - median(lower) and flags a negative
// difference as unresolved.
func (t *tracer) overhead(name string, upper, lower []float64) {
	v := median(upper) - median(lower)
	if v < 0 {
		t.unresolved++
		t.rep.note("%s = %.1f us is negative: unresolved at this run's noise", name, v)
	}
	t.rep.set(name, v, "us")
}

// ladderMetrics reports the layer overheads. Each is the difference of two
// adjacent entries, taken from the workload's own requests when its path
// has both entries and from probe (a single Mul at the stack's BFV
// parameters) otherwise.
func (t *tracer) ladderMetrics(s, probe [4][]float64) {
	pair := func(upper, lower int) ([]float64, []float64) {
		if len(s[upper]) > 0 && len(s[lower]) > 0 {
			return s[upper], s[lower]
		}
		return probe[upper], probe[lower]
	}
	for _, o := range []struct {
		name         string
		upper, lower int
	}{
		{"cluster.overhead_us", atCluster, atMux},
		{"cloud.overhead_us", atMux, atEngine},
		{"engine.overhead_us", atEngine, atCore},
	} {
		u, l := pair(o.upper, o.lower)
		t.overhead(o.name, u, l)
	}
}

func runTraced(wl *workload, seed int64, d time.Duration, rep *report) error {
	inst, err := wl.build(seed)
	if err != nil {
		return err
	}
	defer inst.close()
	for i := 0; i < wl.warmup; i++ {
		r, err := inst.send(context.Background(), i)
		if err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
		if ok, _ := inst.check(i, r, false); !ok {
			rep.fail("warm-up request %d decrypted wrong", i)
		}
	}
	printEnv(wl, seed, inst.env())
	t := &tracer{rep: rep, d: d, wl: wl}
	ticks0 := readCPUTicks()
	speed := newSpeedMeter(calSlice)

	t.traceOverhead(inst)
	if err := wl.trace(t, inst); err != nil {
		return err
	}
	if err := kernelProbes(t); err != nil {
		return err
	}
	rep.set("host.steal_pct", stealPct(ticks0, readCPUTicks()), "%")
	rep.set("host.speed", speed.next(), "ratio")
	rep.set("trace.unresolved", float64(t.unresolved), "count")
	rep.phase("traced", t.attempted, t.failed)
	return nil
}

// traceOverhead alternates untraced and traced closed-loop windows on the
// workload's own path and reports the traced run's throughput loss, plus
// the process's allocation and GC cost per request over the untraced
// windows.
func (t *tracer) traceOverhead(inst instance) {
	const pairs = 2
	win := time.Duration(float64(t.d) * overheadShare / (2 * pairs))
	var (
		plain, traced loopStats
		m0, m1        runtime.MemStats
		allocs, pause uint64
		offset        = t.wl.simReqs
	)
	for p := 0; p < pairs; p++ {
		runtime.ReadMemStats(&m0)
		ls := closedLoop(t.wl, inst, win, offset, nil)
		runtime.ReadMemStats(&m1)
		allocs += m1.TotalAlloc - m0.TotalAlloc
		pause += m1.PauseTotalNs - m0.PauseTotalNs
		plain = addLoop(plain, ls)
		offset += ls.attempted

		tr := obs.New("requests")
		ls = closedLoop(t.wl, inst, win, offset, func(f func()) {
			sc := tr.Start("request")
			f()
			sc.End()
		})
		traced = addLoop(traced, ls)
		offset += ls.attempted
	}
	t.attempted += plain.attempted + traced.attempted
	t.failed += plain.failed + traced.failed
	rate := func(ls loopStats) float64 { return float64(len(ls.latencies)) / ls.elapsed.Seconds() }
	n := float64(len(plain.latencies))
	t.rep.set("trace.overhead_pct", 100*(rate(plain)-rate(traced))/rate(plain), "%")
	t.rep.set("go.alloc_bytes_per_req", float64(allocs)/n, "B")
	t.rep.set("go.gc_pause_ms_per_kreq", float64(pause)/1e6/n*1000, "ms")
}

func addLoop(a, b loopStats) loopStats {
	a.attempted += b.attempted
	a.failed += b.failed
	a.latencies = append(a.latencies, b.latencies...)
	a.elapsed += b.elapsed
	return a
}

// engineSnapshot sums the Stats of every traced engine.
type engineSnapshot struct {
	completed, failed, rejected   uint64
	batches, batchedOps           uint64
	keyLoads, keyHits, keyEvicted uint64
	execN, assemblyN              uint64
	execSum, assemblySum          float64 // microseconds
}

func (t *tracer) snapshot() engineSnapshot {
	var s engineSnapshot
	for _, e := range t.engines {
		st := e.Stats()
		s.completed += st.Completed
		s.failed += st.Failed
		s.rejected += st.Rejected
		s.batches += st.Batches
		s.batchedOps += st.BatchedOps
		s.keyLoads += st.KeyLoads
		s.keyHits += st.KeyHits
		s.keyEvicted += st.KeyEvictions
		s.execN += st.ExecTime.Count
		s.execSum += st.ExecTime.MeanMicros * float64(st.ExecTime.Count)
		s.assemblyN += st.BatchAssembly.Count
		s.assemblySum += st.BatchAssembly.MeanMicros * float64(st.BatchAssembly.Count)
	}
	return s
}

// engineMetrics reports the engine layer over the window between two
// snapshots, and the queue wait of the requests submitted at the engine
// entry in it.
func (t *tracer) engineMetrics(a, b engineSnapshot, waits []float64) {
	ratio := func(x, y uint64) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	windowMean := func(sumA, sumB float64, nA, nB uint64) float64 {
		if nB == nA {
			return 0
		}
		return (sumB - sumA) / float64(nB-nA)
	}
	r := t.rep
	r.set("engine.queue_wait_p50_us", median(waits), "us")
	r.set("engine.queue_wait_p90_us", quantile(waits, 0.9), "us")
	r.set("engine.batch_assembly_us", windowMean(a.assemblySum, b.assemblySum, a.assemblyN, b.assemblyN), "us")
	r.set("engine.exec_us", windowMean(a.execSum, b.execSum, a.execN, b.execN), "us")
	r.set("engine.avg_batch", ratio(b.batchedOps-a.batchedOps, b.batches-a.batches), "ops")
	r.set("engine.key_hit_ratio", ratio(b.keyHits-a.keyHits, b.keyHits-a.keyHits+b.keyLoads-a.keyLoads), "ratio")
	r.set("engine.key_evictions_per_req", ratio(b.keyEvicted-a.keyEvicted, b.completed-a.completed), "count")
	r.set("engine.failed", float64(b.failed-a.failed), "count")
	r.set("engine.rejected", float64(b.rejected-a.rejected), "count")
}

// engineLoop runs the workload's closed loop at the engine entry for the
// engine share of the budget: submit(i) serves request i and returns its
// queue wait.
func (t *tracer) engineLoop(submit func(i int) (time.Duration, verdict, error)) []float64 {
	type res struct {
		waits            []float64
		attempted, fails int
	}
	n := t.wl.submitters
	out := make(chan res, n)
	deadline := time.Now().Add(time.Duration(float64(t.d) * engineShare))
	for s := 0; s < n; s++ {
		go func(s int) {
			var r res
			for j := 0; time.Now().Before(deadline); j++ {
				r.attempted++
				w, v, err := submit(s + j*n)
				if err != nil || !v() {
					r.fails++
					continue
				}
				r.waits = append(r.waits, us(w))
			}
			out <- r
		}(s)
	}
	var waits []float64
	for s := 0; s < n; s++ {
		r := <-out
		waits = append(waits, r.waits...)
		t.attempted += r.attempted
		t.failed += r.fails
	}
	return waits
}

// clusterCounters reports the router's retry and error counters.
func (t *tracer) clusterCounters(c *cluster.Client) {
	ctr := c.Stats().Obs.Counters
	t.rep.set("cluster.retries", float64(ctr["cluster_retries"]+ctr["cluster_reroutes"]), "count")
	t.rep.set("cluster.errors", float64(ctr["cluster_errors"]), "count")
}

// codecTimes times the wire codec on one request and its response, reps
// times: encode is WriteRequest plus WriteResponse, decode is ReadRequest
// plus ReadResponse. It returns the medians in microseconds and the bytes
// of the pair.
func codecTimes(reps int, writeReq, writeResp func(io.Writer) error, readReq, readResp func(io.Reader) error) (enc, dec float64, n int, err error) {
	var encs, decs []float64
	for k := 0; k < reps; k++ {
		var req, resp bytes.Buffer
		start := time.Now()
		if err := writeReq(&req); err != nil {
			return 0, 0, 0, fmt.Errorf("encode request: %w", err)
		}
		if err := writeResp(&resp); err != nil {
			return 0, 0, 0, fmt.Errorf("encode response: %w", err)
		}
		encs = append(encs, us(time.Since(start)))
		n = req.Len() + resp.Len()
		start = time.Now()
		if err := readReq(&req); err != nil {
			return 0, 0, 0, fmt.Errorf("decode request: %w", err)
		}
		if err := readResp(&resp); err != nil {
			return 0, 0, 0, fmt.Errorf("decode response: %w", err)
		}
		decs = append(decs, us(time.Since(start)))
	}
	return median(encs), median(decs), n, nil
}

// codecMetrics reports the medians of per-request codec samples.
func (t *tracer) codecMetrics(encs, decs, sizes []float64) {
	t.rep.set("cloud.encode_us", median(encs), "us")
	t.rep.set("cloud.decode_us", median(decs), "us")
	t.rep.set("cloud.bytes_per_req", mean(sizes), "B")
}

// cyclesOf maps the co-processor's retired-instruction span names onto the
// metric suffixes of hwsim.cycles.<op>.
var cycleOps = []struct{ span, key string }{
	{hwsim.OpLift.String(), "lift"},
	{hwsim.OpScale.String(), "scale"},
	{hwsim.OpNTT.String(), "ntt"},
	{hwsim.OpINTT.String(), "intt"},
	{hwsim.OpCMul.String(), "cmul"},
	{hwsim.OpCAdd.String(), "cadd"},
	{hwsim.OpCSub.String(), "csub"},
	{hwsim.OpCMac.String(), "cmac"},
	{hwsim.OpRearr.String(), "rearr"},
	{hwsim.OpDecomp.String(), "wdec"},
	{hwsim.OpRescale.String(), "rescale"},
	{"dma", "dma"},
}

// cycleLeaves reports the per-op cycles of one co-processor operation's
// compute window and checks that they sum to the compute cycles the
// serving path reported for the same operation.
func (t *tracer) cycleLeaves(perOp map[string]uint64, served uint64) {
	var sum uint64
	for _, c := range cycleOps {
		t.rep.set("hwsim.cycles."+c.key, float64(perOp[c.span]), "cycles")
	}
	for _, c := range perOp {
		sum += c
	}
	fmt.Printf("trace check: hwsim leaves sum to %d cycles; the serving path reported %d\n", sum, served)
	if sum != served {
		t.rep.fail("hwsim cycle leaves (%d) do not sum to the reported compute cycles (%d)", sum, served)
	}
}

// tracedMul runs one BFV Mul on a fresh single-co-processor accelerator
// with a span tracer on its co-processor and returns the cycles per span
// name over the compute window: every span after the operand upload, which
// the report books separately.
func tracedMul(params *fv.Params, a, b *fv.Ciphertext, rk *fv.RelinKey) (map[string]uint64, *fv.Ciphertext, error) {
	acc, err := core.New(params, hwsim.VariantHPS, 1)
	if err != nil {
		return nil, nil, err
	}
	tr := obs.New("mul")
	acc.Platform.Coprocs[0].Trace = tr
	ct, _, err := acc.Mul(a, b, rk)
	if err != nil {
		return nil, nil, err
	}
	spans := tr.Root().Children
	if len(spans) == 0 || spans[0].Name != "dma" {
		return nil, nil, fmt.Errorf("traced Mul does not start with the operand upload")
	}
	perOp := map[string]uint64{}
	for _, s := range spans[1:] {
		perOp[s.Name] += s.SumCycles()
	}
	return perOp, ct, nil
}

// bfvProbe is one tenant's BFV operands on one engine: the stand-in for
// a layer the workload's own requests do not pass through.
type bfvProbe struct {
	params *fv.Params
	tenant string
	sk     *fv.SecretKey
	rk     *fv.RelinKey
	a, b   *fv.Ciphertext
	pa, pb *fv.Plaintext
	eng    *engine.Engine
	acc    *core.Accelerator
}

func (p *bfvProbe) mulWant() []uint64 {
	return reference(p.params, engine.OpMul, p.pa, p.pb)
}

func (p *bfvProbe) verify(ct *fv.Ciphertext, want []uint64) verdict {
	return func() bool {
		ok, _ := checkBFV(p.params, p.sk, ct, want, false)
		return ok
	}
}

// mulLadder is a Mul at the engine and core entries.
func (p *bfvProbe) mulLadder() ladder {
	want := p.mulWant()
	return ladder{
		atEngine: func(ctx context.Context) (verdict, error) {
			res, err := p.eng.Submit(ctx, engine.Op{Kind: engine.OpMul, Tenant: p.tenant, A: p.a, B: p.b})
			if err != nil {
				return nil, err
			}
			return p.verify(res.Ct, want), nil
		},
		atCore: func(ctx context.Context) (verdict, error) {
			ct, _, err := p.acc.Mul(p.a, p.b, p.rk)
			if err != nil {
				return nil, err
			}
			return p.verify(ct, want), nil
		},
	}
}

// programProbe reports the program executor's metrics on a two-node
// program (x*y + x) for workloads that send no programs of their own.
func (t *tracer) programProbe(p *bfvProbe) error {
	b := program.NewBuilder()
	in := b.Inputs(2)
	b.Output(b.Add(b.Mul(in[0], in[1]), in[0]))
	prog, err := b.Build()
	if err != nil {
		return err
	}
	mul := p.mulWant()
	want := make([]uint64, len(mul))
	for j := range want {
		want[j] = (mul[j] + p.pa.Coeffs[j]) % p.params.T()
	}
	var samples []*engine.ProgramResult
	var host []float64
	stop := time.Now().Add(t.d / 20)
	for i := 0; i < 3 || time.Now().Before(stop); i++ {
		var res *engine.ProgramResult
		d, ok := t.call(func(ctx context.Context) (verdict, error) {
			r, err := p.eng.SubmitProgram(ctx, engine.ProgramOp{Tenant: p.tenant, Prog: prog, Inputs: []*fv.Ciphertext{p.a, p.b}})
			if err != nil {
				return nil, err
			}
			res = r
			return p.verify(r.Outputs[0], want), nil
		})
		if ok {
			samples = append(samples, res)
			host = append(host, ms(d))
		}
	}
	if len(samples) == 0 {
		return fmt.Errorf("program probe: no program succeeded")
	}
	r := samples[0]
	t.programMetrics(r.Nodes, r.KeyLoads, uint64(r.MakespanCycles), uint64(r.SerialCycles), host)
	return nil
}

func (t *tracer) programMetrics(nodes, keyLoads int, makespan, serial uint64, hostMs []float64) {
	r := t.rep
	r.set("program.nodes", float64(nodes), "count")
	r.set("program.key_loads", float64(keyLoads), "count")
	r.set("program.makespan_cycles", float64(makespan), "cycles")
	r.set("program.serial_cycles", float64(serial), "cycles")
	r.set("program.lane_parallelism", float64(serial)/float64(makespan), "ratio")
	r.set("program.host_ms_per_node", median(hostMs)/float64(nodes), "ms")
}
