package core

import (
	"math"
	"time"

	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/metrics"
	"distenc/internal/sptensor"
)

// Complete runs the CP-based tensor completion ADMM (Algorithm 1) on a
// single machine, with the paper's §III optimizations applied: the spectral
// form of the B update (Eq. 7), Gram-matrix products instead of explicit
// Khatri-Rao (Eq. 12), and the residual-tensor identity (Eq. 16) instead of
// materializing the completed dense tensor.
//
// sims may be nil (no auxiliary information) or hold one similarity per mode
// with nil entries for modes without auxiliary data.
func Complete(t *sptensor.Tensor, sims []*graph.Similarity, opt Options) (*Result, error) {
	return complete(t, sims, opt, nil)
}

// Resume continues an interrupted Complete run from the latest checkpoint in
// opt.CheckpointDir (see Options.CheckpointEvery). The restored state is
// bit-identical to the state the writing run held, and the solver arithmetic
// is deterministic, so the resumed run's factors match the uninterrupted
// run's exactly. Returns ErrNoCheckpoint when the directory holds none.
func Resume(t *sptensor.Tensor, sims []*graph.Similarity, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	ck, err := loadCheckpoint(opt.CheckpointDir, t, opt)
	if err != nil {
		return nil, err
	}
	return complete(t, sims, opt, ck)
}

// complete is the shared serial loop; a non-nil ck replaces the fresh
// initialization with checkpointed state and starts at its iteration.
func complete(t *sptensor.Tensor, sims []*graph.Similarity, opt Options, ck *checkpointState) (*Result, error) {
	opt = opt.withDefaults()
	if err := validate(t, sims); err != nil {
		return nil, err
	}
	if err := validateOptions(t, opt); err != nil {
		return nil, err
	}
	sp, err := spectra(sims, opt.TruncK, opt.Seed)
	if err != nil {
		return nil, err
	}
	st := newSolverState(t, sp, opt)
	if ck != nil {
		st.restore(ck, false)
	}
	start := time.Now()
	for ; st.iter < opt.MaxIter; st.iter++ {
		iterStart := time.Now()
		grams := make([]*mat.Dense, t.Order())
		for n, f := range st.factors {
			grams[n] = mat.Gram(f)
		}
		gramDur := time.Since(iterStart)
		// The MTTKRP kernel and the residual refresh are the serial
		// counterparts of DisTenC's map stage, so both count toward the
		// MTTKRPMap phase and the timing breakdown stays comparable across
		// solvers.
		var kernel time.Duration
		delta := st.step(grams, func(mode int) *mat.Dense {
			t0 := time.Now()
			h := sptensor.MTTKRP(st.resid, st.factors, mode, st.scratch)
			kernel += time.Since(t0)
			return h
		})
		// Residual refresh E = Ω∗(T − [[A_{t+1}]]) (§III-D; see DESIGN.md
		// on the Algorithm 3 line-13 typo).
		t0 := time.Now()
		st.resid = sptensor.Residual(st.t, sptensor.NewKruskal(st.factors...))
		kernel += time.Since(t0)
		if err := st.maybeCheckpoint(); err != nil {
			return nil, err
		}
		iterDur := time.Since(iterStart)
		st.phases = append(st.phases, metrics.PhaseTimes{
			Iter:      st.iter,
			MTTKRPMap: kernel,
			Gram:      gramDur,
			Driver:    iterDur - kernel - gramDur,
			Total:     iterDur,
		})
		point := metrics.ConvergencePoint{
			Iter:      st.iter,
			Elapsed:   time.Since(start),
			TrainRMSE: st.trainRMSE(),
			MaxDelta:  delta,
		}
		st.trace = append(st.trace, point)
		if opt.OnIteration != nil {
			opt.OnIteration(point)
		}
		if st.stop(delta) {
			st.converged = true
			st.iter++
			break
		}
	}
	return st.result(start), nil
}

// solverState carries the ADMM variables shared by the serial solver and the
// driver side of DisTenC.
type solverState struct {
	t       *sptensor.Tensor
	opt     Options
	sp      []*graph.Spectral
	factors []*mat.Dense // A(n)
	aux     []*mat.Dense // B(n), updated in place by step
	mult    []*mat.Dense // Y(n), updated in place by step
	resid   *sptensor.Tensor
	eta     float64
	iter    int

	consensus float64
	converged bool
	trace     metrics.Trace
	phases    metrics.PhaseBreakdown
	scratch   []float64
	next      []*mat.Dense // step's new factors, before they are committed
	drv       modeStep     // step's reusable buffers
}

func newSolverState(t *sptensor.Tensor, sp []*graph.Spectral, opt Options) *solverState {
	st := &solverState{
		t:       t,
		opt:     opt,
		sp:      sp,
		factors: initFactors(t.Dims, opt.Rank, opt.Seed),
		eta:     opt.Eta0,
		scratch: make([]float64, opt.Rank),
		next:    make([]*mat.Dense, t.Order()),
		drv:     newModeStep(opt.Rank),
	}
	ApplyInitScale(st.factors, t, opt)
	st.aux = make([]*mat.Dense, t.Order())
	st.mult = make([]*mat.Dense, t.Order())
	for n, d := range t.Dims {
		st.aux[n] = mat.NewDense(d, opt.Rank)
		st.mult[n] = mat.NewDense(d, opt.Rank)
	}
	st.resid = sptensor.Residual(t, sptensor.NewKruskal(st.factors...))
	return st
}

// stop reports whether either stopping criterion fired for delta.
func (st *solverState) stop(delta float64) bool {
	if delta < st.opt.Tol {
		return true
	}
	return st.opt.ConsensusTol > 0 && st.consensus < st.opt.ConsensusTol
}

// ApplyInitScale rescales the random initialization so the initial model's
// mean prediction over the observed cells matches the observed mean (unless
// opt.InitScale pins an explicit scale). With nearly all cells missing, the
// EM-style fill-in otherwise spends many iterations just finding the data's
// scale. Exported so every baseline starts from the identical point.
func ApplyInitScale(factors []*mat.Dense, t *sptensor.Tensor, opt Options) {
	scale := opt.InitScale
	if scale == 0 {
		if t.NNZ() == 0 {
			return
		}
		model := sptensor.NewKruskal(factors...)
		var predSum, obsSum float64
		for e := 0; e < t.NNZ(); e++ {
			predSum += model.At(t.Index(e))
			obsSum += t.Val[e]
		}
		if predSum == 0 || obsSum/predSum <= 0 {
			return
		}
		scale = math.Pow(obsSum/predSum, 1/float64(len(factors)))
	}
	if scale == 1 {
		return
	}
	for _, f := range factors {
		f.Scale(scale)
	}
}

func (st *solverState) trainRMSE() float64 {
	if st.t.NNZ() == 0 {
		return 0
	}
	return st.resid.NormF() / math.Sqrt(float64(st.t.NNZ()))
}

func (st *solverState) result(start time.Time) *Result {
	return &Result{
		Model:     sptensor.NewKruskal(st.factors...),
		Aux:       st.aux,
		Iters:     st.iter,
		Converged: st.converged,
		Trace:     st.trace,
		Phases:    st.phases,
		Elapsed:   time.Since(start),
	}
}
