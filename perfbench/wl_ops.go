package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/sampler"
)

// galoisElt is the rotation every op workload installs and requests.
const galoisElt = 3

// keySeed derives every tenant's keys. Keys belong to the tenant, not to
// the run: the run's seed draws the request inputs and the encryption
// randomness, while a key-dependent figure such as CKKS precision stays
// comparable across seeds.
const keySeed = 1

// opSpec shapes a single-op BFV workload served through the cluster.
type opSpec struct {
	params     fv.Config
	tenants    int
	nodes      int
	zipf       float64    // tenant popularity exponent (> 1); unused with one tenant
	mix        [3]float64 // cumulative shares of Add, Mul (Rotate takes the rest)
	reqs       int        // length of the seeded request sequence
	ctsPerUser int        // distinct encrypted operands per tenant
}

func init() {
	register(&workload{
		name:       "bfv-mul-paper",
		submitters: 1,
		setupReps:  5,
		warmup:     2,
		simReqs:    8,
		build: func(seed int64) (instance, error) {
			return buildOps(seed, opSpec{
				params: fv.PaperConfig(65537), tenants: 1, nodes: 1,
				mix: [3]float64{0, 1, 1}, reqs: 8, ctsPerUser: 8,
			})
		},
		trace: traceOps,
	})
	register(&workload{
		name:       "bfv-mix-cluster",
		submitters: 2,
		setupReps:  7,
		warmup:     32,
		simReqs:    512,
		build: func(seed int64) (instance, error) {
			return buildOps(seed, opSpec{
				params: fv.TestConfig(65537), tenants: 64, nodes: 2, zipf: 1.1,
				mix: [3]float64{0.6, 0.9, 1}, reqs: 512, ctsPerUser: 4,
			})
		},
		trace: traceOps,
	})
}

// user is one tenant: its keys and its encrypted operands, with their
// plaintexts kept for the reference computation.
type user struct {
	name string
	sk   *fv.SecretKey
	rk   *fv.RelinKey
	gk   *fv.GaloisKey
	cts  []*fv.Ciphertext
	pts  []*fv.Plaintext
}

type opReq struct {
	kind   engine.OpKind
	tenant int
	a, b   int
	want   []uint64 // decrypted coefficients the result must equal
}

type opsInstance struct {
	params *fv.Params
	users  []*user
	reqs   []opReq
	nodes  []*node
	client *cluster.Client
}

func buildOps(seed int64, spec opSpec) (_ *opsInstance, err error) {
	params, err := fv.NewParams(spec.params)
	if err != nil {
		return nil, err
	}
	in := &opsInstance{params: params}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	keys, prng := sampler.NewPRNG(keySeed), sampler.NewPRNG(uint64(seed))
	t := params.T()
	for u := 0; u < spec.tenants; u++ {
		kg := fv.NewKeyGenerator(params, keys)
		sk, pk, rk := kg.GenKeys()
		us := &user{name: fmt.Sprintf("tenant-%02d", u), sk: sk, rk: rk}
		if spec.mix[1] < 1 {
			us.gk = kg.GenGaloisKey(sk, galoisElt)
		}
		enc := fv.NewEncryptor(params, pk, prng)
		for k := 0; k < spec.ctsPerUser; k++ {
			pt := fv.NewPlaintext(params)
			pt.Coeffs[0] = uint64(rng.Int63n(int64(t)))
			pt.Coeffs[1] = uint64(rng.Int63n(int64(t)))
			us.pts = append(us.pts, pt)
			us.cts = append(us.cts, enc.Encrypt(pt))
		}
		in.users = append(in.users, us)
	}

	var zipf *rand.Zipf
	if spec.tenants > 1 {
		zipf = rand.NewZipf(rng, spec.zipf, 1, uint64(spec.tenants-1))
	}
	// The op mix is exact over the sequence (seeded order), so seeds vary
	// the tenants and operands but not how much work the sequence holds.
	kinds := make([]engine.OpKind, spec.reqs)
	for i := range kinds {
		switch x := (float64(i) + 0.5) / float64(spec.reqs); {
		case x < spec.mix[0]:
			kinds[i] = engine.OpAdd
		case x < spec.mix[1]:
			kinds[i] = engine.OpMul
		default:
			kinds[i] = engine.OpRotate
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for _, kind := range kinds {
		r := opReq{kind: kind}
		if zipf != nil {
			r.tenant = int(zipf.Uint64())
		}
		u := in.users[r.tenant]
		r.a, r.b = rng.Intn(spec.ctsPerUser), rng.Intn(spec.ctsPerUser)
		r.want = reference(params, r.kind, u.pts[r.a], u.pts[r.b])
		in.reqs = append(in.reqs, r)
	}

	for n := 0; n < spec.nodes; n++ {
		nd, err := startNode(fmt.Sprintf("node-%d", n), engine.Config{
			Params: params, Workers: 1, QueueDepth: 256,
		})
		if err != nil {
			return nil, err
		}
		in.nodes = append(in.nodes, nd)
		for _, u := range in.users {
			nd.eng.SetRelinKey(u.name, u.rk)
			if u.gk != nil {
				nd.eng.SetGaloisKey(u.name, u.gk)
			}
		}
	}
	if in.client, err = dialCluster(params, in.nodes, seed); err != nil {
		return nil, err
	}
	return in, nil
}

// reference computes the plaintext result of kind on operands whose only
// nonzero coefficients are 0 and 1.
func reference(params *fv.Params, kind engine.OpKind, a, b *fv.Plaintext) []uint64 {
	t := params.T()
	out := make([]uint64, params.N())
	switch kind {
	case engine.OpAdd:
		out[0] = (a.Coeffs[0] + b.Coeffs[0]) % t
		out[1] = (a.Coeffs[1] + b.Coeffs[1]) % t
	case engine.OpMul:
		out[0] = a.Coeffs[0] * b.Coeffs[0] % t
		out[1] = (a.Coeffs[0]*b.Coeffs[1] + a.Coeffs[1]*b.Coeffs[0]) % t
		out[2] = a.Coeffs[1] * b.Coeffs[1] % t
	case engine.OpRotate:
		copy(out, fv.ApplyAutomorphismPlain(params, galoisElt, a).Coeffs)
	}
	return out
}

func (in *opsInstance) send(ctx context.Context, i int) (reply, error) {
	r := in.reqs[i%len(in.reqs)]
	u := in.users[r.tenant]
	ct, sim, err := in.call(ctx, r, u)
	if err != nil {
		return reply{}, err
	}
	return reply{cts: []*fv.Ciphertext{ct}, simCycles: nanosToCycles(uint64(sim))}, nil
}

func (in *opsInstance) call(ctx context.Context, r opReq, u *user) (*fv.Ciphertext, int64, error) {
	a, b := u.cts[r.a], u.cts[r.b]
	switch r.kind {
	case engine.OpAdd:
		ct, d, err := in.client.Add(ctx, u.name, a, b)
		return ct, int64(d), err
	case engine.OpMul:
		ct, d, err := in.client.Mul(ctx, u.name, a, b)
		return ct, int64(d), err
	default:
		ct, d, err := in.client.Rotate(ctx, u.name, a, galoisElt)
		return ct, int64(d), err
	}
}

func (in *opsInstance) check(i int, rp reply, quality bool) (bool, float64) {
	r := in.reqs[i%len(in.reqs)]
	sk := in.users[r.tenant].sk
	return checkBFV(in.params, sk, rp.cts[0], r.want, quality)
}

// checkBFV decrypts ct and compares every coefficient with want; with
// quality it also measures the remaining noise budget.
func checkBFV(params *fv.Params, sk *fv.SecretKey, ct *fv.Ciphertext, want []uint64, quality bool) (bool, float64) {
	if ct == nil {
		return false, 0
	}
	pt := fv.NewDecryptor(params, sk).Decrypt(ct)
	for j, w := range want {
		if pt.Coeffs[j] != w {
			return false, 0
		}
	}
	if !quality {
		return true, 0
	}
	return true, float64(fv.NoiseBudget(params, sk, ct))
}

func (in *opsInstance) busy() uint64 {
	var engs []*engine.Engine
	for _, n := range in.nodes {
		engs = append(engs, n.eng)
	}
	return busyCycles(engs...)
}

func (in *opsInstance) env() stackEnv {
	return stackEnv{poolWorkers: in.params.Pool.Workers(), engineWorkers: 1, nodes: len(in.nodes)}
}

func (in *opsInstance) close() {
	if in.client != nil {
		in.client.Close()
	}
	for _, n := range in.nodes {
		n.close()
	}
}
