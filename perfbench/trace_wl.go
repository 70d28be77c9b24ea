package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/ckks"
	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
)

// codecReps is how often each sampled request is encoded and decoded.
const codecReps = 9

// traceOps traces the single-op BFV workloads: each seeded request at the
// cluster client, the owning node's mux connection, its engine and a
// standalone accelerator.
func traceOps(t *tracer, inst instance) error {
	in := inst.(*opsInstance)
	ctx := context.Background()
	byID := map[string]*node{}
	muxes := map[string]*cloud.MuxClient{}
	for _, n := range in.nodes {
		t.engines = append(t.engines, n.eng)
		byID[n.id] = n
		mc, err := cloud.DialMux(n.addr, in.params)
		if err != nil {
			return err
		}
		defer mc.Close()
		muxes[n.id] = mc
	}
	acc, err := core.New(in.params, hwsim.VariantHPS, 1)
	if err != nil {
		return err
	}
	owner := func(u *user) string { return in.client.Router().Candidates(u.name)[0] }
	snap := t.snapshot()

	cmds := map[engine.OpKind]uint8{engine.OpAdd: cloud.CmdAdd, engine.OpMul: cloud.CmdMul, engine.OpRotate: cloud.CmdRotate}
	wireReq := func(r opReq) *cloud.Request {
		u := in.users[r.tenant]
		req := &cloud.Request{Ver: cloud.ProtoV2, Cmd: cmds[r.kind], Tenant: u.name, A: u.cts[r.a]}
		if r.kind == engine.OpRotate {
			req.G = galoisElt
		} else {
			req.B = u.cts[r.b]
		}
		return req
	}
	engineOp := func(r opReq) engine.Op {
		u := in.users[r.tenant]
		return engine.Op{Kind: r.kind, Tenant: u.name, A: u.cts[r.a], B: u.cts[r.b], G: galoisElt}
	}
	verify := func(r opReq, ct *fv.Ciphertext) verdict {
		return func() bool {
			ok, _ := checkBFV(in.params, in.users[r.tenant].sk, ct, r.want, false)
			return ok
		}
	}
	samples := t.climb(time.Duration(float64(t.d)*ladderShare), 5, func(i int) ladder {
		r := in.reqs[i%len(in.reqs)]
		u := in.users[r.tenant]
		id := owner(u)
		return ladder{
			atCluster: func(ctx context.Context) (verdict, error) {
				ct, _, err := in.call(ctx, r, u)
				return verify(r, ct), err
			},
			atMux: func(ctx context.Context) (verdict, error) {
				resp, err := muxes[id].Do(ctx, wireReq(r))
				if err != nil {
					return nil, err
				}
				return verify(r, resp.Result), nil
			},
			atEngine: func(ctx context.Context) (verdict, error) {
				res, err := byID[id].eng.Submit(ctx, engineOp(r))
				if err != nil {
					return nil, err
				}
				return verify(r, res.Ct), nil
			},
			atCore: func(context.Context) (verdict, error) {
				var (
					ct  *fv.Ciphertext
					err error
				)
				switch r.kind {
				case engine.OpAdd:
					ct, _, err = acc.Add(u.cts[r.a], u.cts[r.b])
				case engine.OpMul:
					ct, _, err = acc.Mul(u.cts[r.a], u.cts[r.b], u.rk)
				default:
					ct, _, err = acc.Rotate(u.cts[r.a], u.gk)
				}
				return verify(r, ct), err
			},
		}
	})
	t.ladderMetrics(samples, [4][]float64{})

	waits := t.engineLoop(func(i int) (time.Duration, verdict, error) {
		r := in.reqs[i%len(in.reqs)]
		res, err := byID[owner(in.users[r.tenant])].eng.Submit(ctx, engineOp(r))
		if err != nil {
			return 0, nil, err
		}
		return res.Wait, verify(r, res.Ct), nil
	})
	t.engineMetrics(snap, t.snapshot(), waits)
	t.clusterCounters(in.client)

	var encs, decs, sizes []float64
	for i := 0; i < len(in.reqs) && i < 16; i++ {
		r := in.reqs[i]
		req := wireReq(r)
		resp := &cloud.Response{Ver: cloud.ProtoV2, ID: 1, Result: in.users[r.tenant].cts[r.a], ComputeNanos: 1}
		enc, dec, n, err := codecTimes(codecReps,
			func(w io.Writer) error { return cloud.WriteRequest(w, in.params, req) },
			func(w io.Writer) error { return cloud.WriteResponse(w, in.params, resp) },
			func(rd io.Reader) error { _, err := cloud.ReadRequest(rd, in.params); return err },
			func(rd io.Reader) error { _, err := cloud.ReadResponseV(rd, in.params, cloud.ProtoV2); return err })
		if err != nil {
			return err
		}
		encs, decs, sizes = append(encs, enc), append(decs, dec), append(sizes, float64(n))
	}
	t.codecMetrics(encs, decs, sizes)

	u := in.users[0]
	probe := &bfvProbe{params: in.params, tenant: u.name, sk: u.sk, rk: u.rk,
		a: u.cts[0], b: u.cts[1], pa: u.pts[0], pb: u.pts[1], eng: byID[owner(u)].eng, acc: acc}
	if err := t.programProbe(probe); err != nil {
		return err
	}

	// The first Mul of the sequence, traced on a fresh co-processor and
	// checked against what the serving path reported for it.
	for _, r := range in.reqs {
		if r.kind != engine.OpMul {
			continue
		}
		u := in.users[r.tenant]
		_, sim, err := in.call(ctx, r, u)
		if err != nil {
			return err
		}
		perOp, ct, err := tracedMul(in.params, u.cts[r.a], u.cts[r.b], u.rk)
		if err != nil {
			return err
		}
		t.attempted++
		if !verify(r, ct)() {
			t.failed++
		}
		t.cycleLeaves(perOp, nanosToCycles(uint64(sim)))
		return nil
	}
	return fmt.Errorf("the request sequence has no Mul")
}

// traceSearch traces the program workload: each query at the cluster
// client, a mux connection and the engine's program executor. The engine
// and co-processor overheads of a single Mul at the same parameters stand
// in for the per-op entries a program does not pass through.
func traceSearch(t *tracer, inst instance) error {
	in := inst.(*searchInstance)
	ctx := context.Background()
	t.engines = []*engine.Engine{in.node.eng}
	mc, err := cloud.DialMuxTenant(in.node.addr, in.params, searchTenant)
	if err != nil {
		return err
	}
	defer mc.Close()
	acc, err := core.New(in.params, hwsim.VariantHPS, 1)
	if err != nil {
		return err
	}
	snap := t.snapshot()

	verify := func(i int, outs []*fv.Ciphertext) verdict {
		return func() bool {
			ok, _ := in.check(i, reply{cts: outs}, false)
			return ok
		}
	}
	var last *engine.ProgramResult
	samples := t.climb(time.Duration(float64(t.d)*ladderShare), 3, func(i int) ladder {
		q := in.queries[i%len(in.queries)]
		return ladder{
			atCluster: func(ctx context.Context) (verdict, error) {
				resp, err := in.client.RunProgram(ctx, searchTenant, in.prog, q)
				if err != nil {
					return nil, err
				}
				return verify(i, resp.Outputs), nil
			},
			atMux: func(ctx context.Context) (verdict, error) {
				resp, err := mc.RunProgram(ctx, in.prog, q)
				if err != nil {
					return nil, err
				}
				return verify(i, resp.Outputs), nil
			},
			atEngine: func(ctx context.Context) (verdict, error) {
				res, err := in.node.eng.SubmitProgram(ctx, engine.ProgramOp{Tenant: searchTenant, Prog: in.prog, Inputs: q})
				if err != nil {
					return nil, err
				}
				last = res
				return verify(i, res.Outputs), nil
			},
		}
	})
	probe := in.probe(acc)
	probeSamples := t.climb(t.d/20, 5, func(int) ladder { return probe.mulLadder() })
	t.ladderMetrics(samples, probeSamples)
	if last == nil {
		return fmt.Errorf("no program succeeded at the engine entry")
	}
	// Host time per node comes from the engine-entry samples (microseconds).
	host := make([]float64, len(samples[atEngine]))
	for k, v := range samples[atEngine] {
		host[k] = v / 1e3
	}
	t.programMetrics(last.Nodes, last.KeyLoads, uint64(last.MakespanCycles), uint64(last.SerialCycles), host)

	waits := t.engineLoop(func(i int) (time.Duration, verdict, error) {
		res, err := in.node.eng.SubmitProgram(ctx, engine.ProgramOp{Tenant: searchTenant, Prog: in.prog, Inputs: in.queries[i%len(in.queries)]})
		if err != nil {
			return 0, nil, err
		}
		return res.Wait, verify(i, res.Outputs), nil
	})
	t.engineMetrics(snap, t.snapshot(), waits)
	t.clusterCounters(in.client)

	var encs, decs, sizes []float64
	progBytes, err := in.prog.EncodeBytes()
	if err != nil {
		return err
	}
	for i := range in.queries {
		req := &cloud.Request{Ver: cloud.ProtoV2, Cmd: cloud.CmdProgram, Tenant: searchTenant, ProgBytes: progBytes, Inputs: in.queries[i]}
		resp := &cloud.ProgramResponse{ID: 1, Outputs: in.queries[i][:1], MakespanNanos: 1, SerialNanos: 1}
		enc, dec, n, err := codecTimes(codecReps,
			func(w io.Writer) error { return cloud.WriteRequest(w, in.params, req) },
			func(w io.Writer) error { return cloud.WriteProgramResponse(w, in.params, resp) },
			func(rd io.Reader) error { _, err := cloud.ReadRequest(rd, in.params); return err },
			func(rd io.Reader) error { _, err := cloud.ReadProgramResponse(rd, in.params); return err })
		if err != nil {
			return err
		}
		encs, decs, sizes = append(encs, enc), append(decs, dec), append(sizes, float64(n))
	}
	t.codecMetrics(encs, decs, sizes)

	res, err := in.node.eng.Submit(ctx, engine.Op{Kind: engine.OpMul, Tenant: searchTenant, A: probe.a, B: probe.b})
	if err != nil {
		return err
	}
	perOp, ct, err := tracedMul(in.params, probe.a, probe.b, in.rk)
	if err != nil {
		return err
	}
	t.attempted++
	if !probe.verify(ct, probe.mulWant())() {
		t.failed++
	}
	t.cycleLeaves(perOp, uint64(res.Report.ComputeCycles))
	return nil
}

// probe is a Mul of the first query's two low key bits.
func (in *searchInstance) probe(acc *core.Accelerator) *bfvProbe {
	bit := func(i int) *fv.Plaintext {
		pt := fv.NewPlaintext(in.params)
		pt.Coeffs[0] = (in.keys[0] >> i) & 1
		return pt
	}
	return &bfvProbe{params: in.params, tenant: searchTenant, sk: in.sk, rk: in.rk,
		a: in.queries[0][0], b: in.queries[0][1], pa: bit(0), pb: bit(1), eng: in.node.eng, acc: acc}
}

// traceCKKS traces the CKKS pipeline at the engine entry and on a
// standalone chain accelerator. No CKKS traffic crosses the wire in this
// workload, so the cluster and cloud layers are probed with a BFV Mul
// served by the same engine through a server, mux connection and router.
func traceCKKS(t *tracer, inst instance) error {
	in := inst.(*ckksInstance)
	ctx := context.Background()
	t.engines = []*engine.Engine{in.eng}
	cacc, err := core.NewCKKS(in.cp, 1)
	if err != nil {
		return err
	}
	lane := &ckksLane{acc: cacc, ev: ckks.NewEvaluator(in.cp), enc: ckks.NewEncoder(in.cp), cp: in.cp}

	probe, stop, err := in.wireProbe()
	if err != nil {
		return err
	}
	defer stop()
	snap := t.snapshot()

	verify := func(i int, ct *ckks.Ciphertext) verdict {
		return func() bool {
			ok, _ := in.check(i, reply{ck: ct}, false)
			return ok
		}
	}
	samples := t.climb(time.Duration(float64(t.d)*ladderShare), 5, func(i int) ladder {
		return ladder{
			atEngine: func(ctx context.Context) (verdict, error) {
				r, err := in.send(ctx, i)
				return verify(i, r.ck), err
			},
			atCore: func(context.Context) (verdict, error) {
				ct, _, err := in.pipeline(in.inputs[i%len(in.inputs)], func(op engine.Op) (*ckks.Ciphertext, uint64, error) {
					return lane.exec(op, in)
				})
				return verify(i, ct), err
			},
		}
	})
	mulWant := probe.mulWant()
	probeSamples := t.climb(t.d/20, 5, func(int) ladder {
		l := probe.mulLadder()
		l[atCluster] = func(ctx context.Context) (verdict, error) {
			ct, _, err := probe.client.Mul(ctx, probe.tenant, probe.a, probe.b)
			return probe.verify(ct, mulWant), err
		}
		l[atMux] = func(ctx context.Context) (verdict, error) {
			resp, err := probe.mux.Do(ctx, &cloud.Request{Cmd: cloud.CmdMul, Tenant: probe.tenant, A: probe.a, B: probe.b})
			if err != nil {
				return nil, err
			}
			return probe.verify(resp.Result, mulWant), nil
		}
		return l
	})
	t.ladderMetrics(samples, probeSamples)

	waits := t.engineLoop(func(i int) (time.Duration, verdict, error) {
		var wait time.Duration
		ct, _, err := in.pipeline(in.inputs[i%len(in.inputs)], func(op engine.Op) (*ckks.Ciphertext, uint64, error) {
			res, err := in.eng.Submit(ctx, op)
			if err != nil {
				return nil, 0, err
			}
			wait += res.Wait
			return res.CCt, 0, nil
		})
		return wait, verify(i, ct), err
	})
	t.engineMetrics(snap, t.snapshot(), waits)
	t.clusterCounters(probe.client)

	// The wire codec on the workload's own ciphertexts: a CKKS Mul request
	// carrying an input matrix twice, answered with the input.
	var encs, decs, sizes []float64
	for _, x := range in.inputs {
		req := &cloud.Request{Ver: cloud.ProtoV2, Cmd: cloud.CmdCKKSMul, CA: x, CB: x}
		resp := &cloud.Response{Ver: cloud.ProtoV2, ID: 1, CKKSResult: x, ComputeNanos: 1}
		enc, dec, n, err := codecTimes(codecReps,
			func(w io.Writer) error { return cloud.WriteRequest(w, in.fvp, req) },
			func(w io.Writer) error { return cloud.WriteResponse(w, in.fvp, resp) },
			func(rd io.Reader) error { _, err := cloud.ReadRequestCKKS(rd, in.fvp, in.cp); return err },
			func(rd io.Reader) error { _, err := cloud.ReadCKKSResponseV(rd, in.cp, cloud.ProtoV2); return err })
		if err != nil {
			return err
		}
		encs, decs, sizes = append(encs, enc), append(decs, dec), append(sizes, float64(n))
	}
	t.codecMetrics(encs, decs, sizes)

	if err := t.programProbe(&probe.bfvProbe); err != nil {
		return err
	}

	// One CKKS Mul+Rescale of the input with itself, on a fresh chain
	// accelerator, checked against the engine's report for the same op.
	x := in.inputs[0]
	res, err := in.eng.Submit(ctx, engine.Op{Kind: engine.OpCKKSMul, CA: x, CB: x})
	if err != nil {
		return err
	}
	fresh, err := core.NewCKKS(in.cp, 1)
	if err != nil {
		return err
	}
	before := opCycles(fresh.Stats())
	ct, rep, err := fresh.Mul(x, x, in.rk)
	if err != nil {
		return err
	}
	t.attempted++
	if !res.CCt.Equal(ct) {
		t.failed++
		t.rep.fail("chain accelerator Mul differs from the engine's")
	}
	// The chain ledger books the operand and result transfers as DMA too;
	// the report carries them separately from the compute window.
	perOp := opCycles(fresh.Stats())
	for k, v := range before {
		perOp[k] -= v
	}
	perOp["dma"] -= uint64(rep.SendCycles + rep.ReceiveCycles)
	t.cycleLeaves(perOp, uint64(res.Report.ComputeCycles))
	return nil
}

// opCycles snapshots a co-processor ledger by the span names the hwsim
// tracer uses: per-opcode cycles plus the DMA transfers.
func opCycles(s *hwsim.Stats) map[string]uint64 {
	out := map[string]uint64{}
	for op, st := range s.PerOp {
		out[op.String()] += uint64(st.TotalCycles)
	}
	var instr hwsim.Cycles
	for _, st := range s.PerOp {
		instr += st.TotalCycles
	}
	out["dma"] = uint64(s.Total - instr)
	return out
}

// ckksLane runs CKKS ops the way an engine worker does, without the
// engine: hardware kinds on a chain accelerator, plaintext kinds on the
// software evaluator.
type ckksLane struct {
	acc *core.CKKSAccelerator
	ev  *ckks.Evaluator
	enc *ckks.Encoder
	cp  *ckks.Params
}

func (l *ckksLane) align(a, b *ckks.Ciphertext) (*ckks.Ciphertext, *ckks.Ciphertext) {
	if a.Level() > b.Level() {
		a = l.ev.DropLevel(a, b.Level())
	} else if b.Level() > a.Level() {
		b = l.ev.DropLevel(b, a.Level())
	}
	return a, b
}

func (l *ckksLane) exec(op engine.Op, in *ckksInstance) (*ckks.Ciphertext, uint64, error) {
	var (
		ct  *ckks.Ciphertext
		rep core.Report
		err error
	)
	switch op.Kind {
	case engine.OpCKKSAdd:
		a, b := l.align(op.CA, op.CB)
		ct, rep, err = l.acc.Add(a, b)
	case engine.OpCKKSMul:
		a, b := l.align(op.CA, op.CB)
		ct, rep, err = l.acc.Mul(a, b, in.rk)
	case engine.OpCKKSRotate:
		ct, rep, err = l.acc.Rotate(op.CA, op.R, in.gks[rotationIndex(op.R)])
	case engine.OpCKKSAddPlain:
		pt, perr := l.enc.Encode(op.Plain, op.CA.Level(), op.CA.Scale)
		if perr != nil {
			return nil, 0, perr
		}
		ct = l.ev.AddPlain(op.CA, pt)
	case engine.OpCKKSMulPlain:
		level := op.CA.Level()
		pt, perr := l.enc.Encode(op.Plain, level, l.cp.ScaleUpTo(op.CA.Scale, level, l.cp.DefaultScale()))
		if perr != nil {
			return nil, 0, perr
		}
		ct = l.ev.Rescale(l.ev.MulPlain(op.CA, pt))
	default:
		return nil, 0, fmt.Errorf("ckks lane: unexpected op %v", op.Kind)
	}
	return ct, uint64(rep.ComputeCycles), err
}

// rotationIndex maps a power-of-two rotation to its Galois key's index.
func rotationIndex(r int) int {
	i := 0
	for r > 1 {
		r >>= 1
		i++
	}
	return i
}

// wireBFVProbe is a BFV probe tenant reachable over the wire.
type wireBFVProbe struct {
	bfvProbe
	client *cluster.Client
	mux    *cloud.MuxClient
}

// wireProbe installs a BFV probe tenant on the CKKS workload's engine and
// serves it through a server, a mux connection and a cluster client.
func (in *ckksInstance) wireProbe() (*wireBFVProbe, func(), error) {
	params := in.fvp
	kg := fv.NewKeyGenerator(params, sampler.NewPRNG(1))
	sk, pk, rk := kg.GenKeys()
	enc := fv.NewEncryptor(params, pk, sampler.NewPRNG(2))
	pt := func(c0, c1 uint64) *fv.Plaintext {
		p := fv.NewPlaintext(params)
		p.Coeffs[0], p.Coeffs[1] = c0, c1
		return p
	}
	pa, pb := pt(3, 5), pt(7, 11)
	acc, err := core.New(params, hwsim.VariantHPS, 1)
	if err != nil {
		return nil, nil, err
	}
	const tenant = "bfv-probe"
	in.eng.SetRelinKey(tenant, rk)
	srv := cloud.NewServer(params, in.eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go srv.Serve()
	nd := &node{id: "ckks-node", eng: in.eng, srv: srv, addr: addr}
	client, err := dialCluster(params, []*node{nd}, 1)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	mc, err := cloud.DialMux(addr, params)
	if err != nil {
		client.Close()
		srv.Close()
		return nil, nil, err
	}
	p := &wireBFVProbe{
		bfvProbe: bfvProbe{params: params, tenant: tenant, sk: sk, rk: rk,
			a: enc.Encrypt(pa), b: enc.Encrypt(pb), pa: pa, pb: pb, eng: in.eng, acc: acc},
		client: client, mux: mc,
	}
	return p, func() { mc.Close(); client.Close(); srv.Close() }, nil
}
