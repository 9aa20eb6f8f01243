package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

// The reference below is the whole-matrix, allocating formulation of the
// driver algebra that the fused, row-chunked step replaced: about 25
// whole-matrix passes per mode, run serially. It is the oracle the step is
// checked against and is deliberately not shared with production code.

// refIterateWith computes every mode's B and A updates from the
// iteration-t variables without committing them.
func (st *solverState) refIterateWith(grams, hs []*mat.Dense) (next, bs []*mat.Dense) {
	order := st.t.Order()
	next = make([]*mat.Dense, order)
	bs = make([]*mat.Dense, order)
	for n := 0; n < order; n++ {
		bs[n] = st.refUpdateAux(n)
		fn := sptensor.GramProduct(grams, n)
		h := mat.Mul(st.factors[n], fn)
		h = mat.AddMat(h, hs[n])
		h.AddScaled(st.eta, bs[n])
		h.AddScaled(1, st.mult[n])
		lhs := fn.Clone()
		for i := 0; i < lhs.Rows(); i++ {
			lhs.Add(i, i, st.opt.Lambda+st.eta)
		}
		inv, err := mat.InverseSPD(lhs)
		if err != nil {
			panic(err)
		}
		next[n] = mat.Mul(h, inv)
	}
	return next, bs
}

// refUpdateAux computes B(n) ← (ηI + αL_n)⁻¹(ηA(n) − Y(n)).
func (st *solverState) refUpdateAux(n int) *mat.Dense {
	x := st.factors[n].Clone().Scale(st.eta)
	x.AddScaled(-1, st.mult[n])
	var b *mat.Dense
	if st.sp == nil || st.sp[n] == nil {
		b = x.Scale(1 / st.eta)
	} else {
		b = st.sp[n].InverseApply(st.opt.AlphaFor(n), st.eta, x)
	}
	if st.opt.NonNegative {
		data := b.Data()
		for i, v := range data {
			if v < 0 {
				data[i] = 0
			}
		}
	}
	return b
}

// refAdvanceNoResid commits the iteration: the Y and η updates, the
// consensus gap, and the convergence value max_n ‖A_{t+1}−A_t‖²_F.
func (st *solverState) refAdvanceNoResid(next, bs []*mat.Dense) float64 {
	var maxDelta, consensus float64
	for n := range st.factors {
		d := mat.SubMat(next[n], st.factors[n]).NormF()
		maxDelta = math.Max(maxDelta, d*d)
		gap := mat.SubMat(bs[n], next[n])
		consensus = math.Max(consensus, gap.NormF())
		st.mult[n].AddScaled(st.eta, gap)
		st.factors[n] = next[n]
		st.aux[n] = bs[n]
	}
	st.eta = math.Min(st.opt.Rho*st.eta, st.opt.EtaMax)
	st.consensus = consensus
	return maxDelta
}

// driverInputs returns the Gram matrices (the whole-matrix MulATB form when
// ref is set) and the MTTKRPs of st's current factors.
func driverInputs(st *solverState, ref bool) (grams, hs []*mat.Dense) {
	order := st.t.Order()
	grams = make([]*mat.Dense, order)
	hs = make([]*mat.Dense, order)
	st.resid = sptensor.Residual(st.t, sptensor.NewKruskal(st.factors...))
	for n, f := range st.factors {
		if ref {
			grams[n] = mat.MulATB(f, f)
		} else {
			grams[n] = mat.Gram(f)
		}
		hs[n] = sptensor.MTTKRP(st.resid, st.factors, n, st.scratch)
	}
	return grams, hs
}

// driverCase is one problem the driver tests run: dims spanning several row
// chunks, and a similarity per mode chosen to hit every B-update branch.
type driverCase struct {
	name   string
	dims   []int
	sims   func(dims []int) []*graph.Similarity
	truncK int
	nonNeg bool
}

// mixedSims gives mode 0 a similarity (truncated at TruncK 16 when the mode
// is larger), mode 1 none, and mode 2 one it decomposes exactly.
func mixedSims(dims []int) []*graph.Similarity {
	return []*graph.Similarity{graph.TriDiagonal(dims[0]), nil, graph.TriDiagonal(dims[2])}
}

func noSims([]int) []*graph.Similarity { return nil }

var driverCases = []driverCase{
	{name: "no-similarity", dims: []int{2300, 1100, 12}, sims: noSims},
	{name: "no-similarity-nonneg", dims: []int{2300, 1100, 12}, sims: noSims, nonNeg: true},
	{name: "truncated+exact", dims: []int{2300, 1100, 12}, sims: mixedSims, truncK: 16},
	{name: "truncated+exact-nonneg", dims: []int{2300, 1100, 12}, sims: mixedSims, truncK: 16, nonNeg: true},
	{name: "exact", dims: []int{40, 1100, 12}, sims: mixedSims},
}

func (dc driverCase) problem(t *testing.T) (*sptensor.Tensor, []*graph.Similarity, Options) {
	t.Helper()
	d := synth.LinearFactorDataset(dc.dims, 3, 20000, 71)
	opt := Options{Rank: 4, MaxIter: 4, Tol: 0, Seed: 72, Alpha: 0.5, TruncK: dc.truncK, NonNegative: dc.nonNeg}
	return d.Tensor, dc.sims(dc.dims), opt.withDefaults()
}

// TestDriverStepMatchesReference runs the fused step and the whole-matrix
// reference side by side from the same state for a few iterations. Chunked
// reductions reorder sums, so multi-chunk modes agree to 1e-12 relative;
// modes of one chunk keep the reference's summation order exactly, so a
// problem small enough for that must match bit for bit.
func TestDriverStepMatchesReference(t *testing.T) {
	cases := append(driverCases, driverCase{
		name: "single-chunk", dims: []int{60, 50, 12}, sims: mixedSims, truncK: 16, nonNeg: true,
	})
	for _, dc := range cases {
		t.Run(dc.name, func(t *testing.T) {
			tensor, sims, opt := dc.problem(t)
			sp, err := spectra(sims, opt.TruncK, opt.Seed)
			if err != nil {
				t.Fatal(err)
			}
			st := newSolverState(tensor, sp, opt)
			ref := newSolverState(tensor, sp, opt)
			exact := max(dc.dims[0], dc.dims[1], dc.dims[2]) <= mat.ChunkRows
			for it := 0; it < 4; it++ {
				etaUsed := ref.eta
				grams, hs := driverInputs(st, false)
				delta := st.step(grams, func(n int) *mat.Dense { return hs[n] })
				rgrams, rhs := driverInputs(ref, true)
				rnext, rbs := ref.refIterateWith(rgrams, rhs)
				rdelta := ref.refAdvanceNoResid(rnext, rbs)

				label := fmt.Sprintf("iter %d", it)
				if exact {
					assertBitIdentical(t, label+" factors", ref.factors, st.factors)
					assertBitIdentical(t, label+" aux", ref.aux, st.aux)
					assertBitIdentical(t, label+" duals", ref.mult, st.mult)
					if math.Float64bits(delta) != math.Float64bits(rdelta) ||
						math.Float64bits(st.consensus) != math.Float64bits(ref.consensus) {
						t.Fatalf("%s: delta/consensus %v/%v, reference %v/%v", label, delta, st.consensus, rdelta, ref.consensus)
					}
				} else {
					assertRelClose(t, label+" factors", ref.factors, st.factors, nil)
					assertRelClose(t, label+" aux", ref.aux, st.aux, nil)
					// Y accumulates η(B − A′), a difference of near-equal
					// operands: its rounding is relative to η·|A|, not to |Y|.
					assertRelClose(t, label+" duals", ref.mult, st.mult, func(n int) float64 {
						return etaUsed * maxAbs(ref.factors[n])
					})
					// Both norms measure near-equal operands' differences, so
					// they are compared relative to the factors' norm.
					var scale float64
					for _, f := range ref.factors {
						scale = math.Max(scale, f.NormF())
					}
					if relDiff(math.Sqrt(delta), math.Sqrt(rdelta), scale) > 1e-12 ||
						relDiff(st.consensus, ref.consensus, scale) > 1e-12 {
						t.Fatalf("%s: delta/consensus %v/%v, reference %v/%v", label, delta, st.consensus, rdelta, ref.consensus)
					}
				}
				if math.Float64bits(st.eta) != math.Float64bits(ref.eta) {
					t.Fatalf("%s: eta %v, reference %v", label, st.eta, ref.eta)
				}
			}
		})
	}
}

// relDiff returns |got−want| relative to max(|want|, floor).
func relDiff(got, want, floor float64) float64 {
	return math.Abs(got-want) / math.Max(math.Abs(want), floor)
}

func maxAbs(m *mat.Dense) float64 {
	var s float64
	for _, v := range m.Data() {
		s = math.Max(s, math.Abs(v))
	}
	return s
}

// assertRelClose requires max|got−want| ≤ 1e-12·scale per matrix, where the
// scale is max|want|, raised to floor(n) when floor is given.
func assertRelClose(t *testing.T, label string, want, got []*mat.Dense, floor func(n int) float64) {
	t.Helper()
	for n := range want {
		scale := maxAbs(want[n])
		if floor != nil {
			scale = math.Max(scale, floor(n))
		}
		if d := mat.MaxAbsDiff(want[n], got[n]); d > 1e-12*scale {
			t.Fatalf("%s: mode %d differs by %v (scale %v)", label, n, d, scale)
		}
	}
}

// solveSnapshot is everything a solve's result and final checkpoint expose.
type solveSnapshot struct {
	factors, aux, duals []*mat.Dense
	trace               []float64 // TrainRMSE and MaxDelta per iteration
}

func snapshotSolve(t *testing.T, distributed bool, tensor *sptensor.Tensor, sims []*graph.Similarity, opt Options) solveSnapshot {
	t.Helper()
	opt.CheckpointDir = t.TempDir()
	opt.CheckpointEvery = opt.MaxIter
	var res *Result
	var err error
	if distributed {
		c := rdd.MustNewCluster(rdd.Config{Machines: 2})
		defer c.Close()
		res, err = CompleteDistributed(c, tensor, sims, DistOptions{Options: opt})
	} else {
		res, err = Complete(tensor, sims, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(CheckpointPath(opt.CheckpointDir))
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "checkpointed factors", res.Model.Factors, ck.Factors)
	assertBitIdentical(t, "checkpointed aux", res.Aux, ck.Aux)
	s := solveSnapshot{factors: res.Model.Factors, aux: res.Aux, duals: ck.Duals}
	for _, p := range res.Trace {
		s.trace = append(s.trace, p.TrainRMSE, p.MaxDelta)
	}
	return s
}

// TestSolveBitIdenticalAcrossGOMAXPROCS is the determinism contract of the
// row-parallel driver step and Gram: the serial and distributed solvers
// produce bit-identical factors, aux variables, duals and traces whether
// the chunks run on one goroutine or four.
func TestSolveBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, dc := range driverCases {
		for _, distributed := range []bool{false, true} {
			name := dc.name + "/serial"
			if distributed {
				name = dc.name + "/distributed"
			}
			t.Run(name, func(t *testing.T) {
				tensor, sims, opt := dc.problem(t)
				var want solveSnapshot
				for i, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					got := snapshotSolve(t, distributed, tensor, sims, opt)
					if i == 0 {
						want = got
						continue
					}
					label := fmt.Sprintf("GOMAXPROCS=%d", procs)
					assertBitIdentical(t, label+" factors", want.factors, got.factors)
					assertBitIdentical(t, label+" aux", want.aux, got.aux)
					assertBitIdentical(t, label+" duals", want.duals, got.duals)
					for k := range want.trace {
						if math.Float64bits(want.trace[k]) != math.Float64bits(got.trace[k]) {
							t.Fatalf("%s: trace value %d = %v, want %v", label, k, got.trace[k], want.trace[k])
						}
					}
				}
			})
		}
	}
}

// TestSpectraMatchesSerialLoop checks the mode-parallel spectra against
// the mode-by-mode loop that shares one PCG stream: same seed, bit-identical
// eigenpairs.
func TestSpectraMatchesSerialLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const truncK, seed = 20, 73
	sims := []*graph.Similarity{
		graph.TriDiagonal(300), nil, graph.TriDiagonal(15),
		graph.NewSimilarity(50), graph.TriDiagonal(250), graph.TriDiagonal(180),
	}
	got, err := spectra(sims, truncK, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 0x5bec7))
	for n, s := range sims {
		if s == nil || s.NumEdges() == 0 {
			if got[n] != nil {
				t.Fatalf("mode %d: spectrum for a mode without similarity", n)
			}
			continue
		}
		l := graph.NewLaplacian(s)
		var want *graph.Spectral
		if truncK < s.N {
			want, err = graph.TruncatedSpectral(l, truncK, rng)
		} else {
			want, err = graph.ExactSpectral(l)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got[n].Full() != want.Full() {
			t.Fatalf("mode %d: Full() = %v, want %v", n, got[n].Full(), want.Full())
		}
		label := fmt.Sprintf("mode %d", n)
		assertBitIdentical(t, label+" eigenvectors", []*mat.Dense{want.Vectors}, []*mat.Dense{got[n].Vectors})
		assertBitIdentical(t, label+" eigenvalues",
			[]*mat.Dense{mat.NewDenseData(1, len(want.Values), want.Values)},
			[]*mat.Dense{mat.NewDenseData(1, len(got[n].Values), got[n].Values)})
	}
}

// TestDriverStepAllocationBound is the driver's allocation contract: from
// the second iteration on, a step allocates the new factor matrices
// (Σ_n I_n·R·8 bytes) and at most 64 KiB besides — B, Y and every scratch
// buffer are reused.
func TestDriverStepAllocationBound(t *testing.T) {
	for _, dc := range []driverCase{driverCases[0], driverCases[3]} {
		t.Run(dc.name, func(t *testing.T) {
			tensor, sims, opt := dc.problem(t)
			sp, err := spectra(sims, opt.TruncK, opt.Seed)
			if err != nil {
				t.Fatal(err)
			}
			st := newSolverState(tensor, sp, opt)
			grams, hs := driverInputs(st, false)
			mttkrp := func(n int) *mat.Dense { return hs[n] }
			st.step(grams, mttkrp) // the first iteration sizes the scratch
			var factorBytes uint64
			for _, d := range tensor.Dims {
				factorBytes += uint64(d * opt.Rank * 8)
			}
			const steps = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < steps; i++ {
				st.step(grams, mttkrp)
			}
			runtime.ReadMemStats(&after)
			perStep := (after.TotalAlloc - before.TotalAlloc) / steps
			t.Logf("driver step allocates %d B per iteration; its factors are %d B", perStep, factorBytes)
			if bound := factorBytes + 64<<10; perStep > bound {
				t.Fatalf("driver step allocates %d B per iteration, want ≤ %d (factors %d + 64 KiB)", perStep, bound, factorBytes)
			}
		})
	}
}
