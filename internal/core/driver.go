package core

import (
	"math"

	"distenc/internal/mat"
)

// The driver step is the dense algebra of one outer iteration that follows
// the MTTKRP (Algorithm 3 lines 7–14), shared by the serial solver and
// DisTenC. Given the iteration-t variables the per-mode updates are
// independent (Jacobi), and each is row-separable apart from two small
// reductions: the K×R projection Vᵀ(ηA−Y) of Eq. 7 and the R×R Gram. So a
// mode's update runs as at most two passes over fixed-size row chunks
// (mat.ChunkRows) on all cores:
//
//  1. projection (modes with similarity only): each chunk writes its own
//     K×R partial of W = Vᵀ(ηA−Y);
//  2. rows: per row i, x = ηA_i − Y_i; B_i = V_i·W′ (+ x/η for a truncated
//     spectrum) or x/η without similarity, clamped when NonNegative;
//     h = A_i·F + H_i + ηB_i + Y_i; A′_i = h·(F+(λ+η)I)⁻¹; the chunk's
//     partial ‖A′−A‖² and ‖B−A′‖²; then Y_i += η(B_i − A′_i) in place.
//
// Every row keeps the operand order of the whole-matrix formulation and the
// per-chunk partials are combined in chunk order, so results are
// bit-identical at any GOMAXPROCS (and, for modes of at most one chunk,
// bit-identical to the whole-matrix formulation). B, Y and every scratch
// buffer are reused across iterations; the new factor matrices are the only
// per-iteration allocation, because MTTKRPStage treats published factors as
// immutable and a speculative zombie attempt may still be reading them.

// modeStep is one mode's fused update: its inputs, the buffers it writes,
// and per-chunk scratch. The solver keeps one, reused across modes and
// iterations.
type modeStep struct {
	a, h   *mat.Dense // A(n) and E_(n)·U(n)
	b, y   *mat.Dense // B(n) and Y(n), overwritten in place
	next   *mat.Dense // A(n) of iteration t+1, freshly allocated (zeroed)
	v      *mat.Dense // Laplacian eigenvectors V (I×K); nil without similarity
	full   bool       // exact spectrum: no Woodbury x/η term
	w      []float64  // K×R row-major W′, the rescaled projection
	eta    float64
	invEta float64
	nonNeg bool

	f, lhs, inv, chol *mat.Dense // R×R: F_n, F_n+(λ+η)I, its inverse, Cholesky factor

	proj []float64 // per chunk: K×R partial of the projection pass
	tmp  []float64 // per chunk: two R-vectors of row scratch
	sums []float64 // per chunk: partial ‖A′−A‖² and ‖B−A′‖²
}

func newModeStep(rank int) modeStep {
	return modeStep{
		f:    mat.NewDense(rank, rank),
		lhs:  mat.NewDense(rank, rank),
		inv:  mat.NewDense(rank, rank),
		chol: mat.NewDense(rank, rank),
	}
}

// step runs the driver algebra of one outer iteration: every mode's fused
// update from the iteration-t variables, then the commit of the new factors
// and the η update (Algorithm 3 line 14). grams are the per-mode
// self-products A(n)ᵀA(n); mttkrp(n) supplies E_(n)·U(n) (in-process for the
// serial solver, via the engine for DisTenC) and may read st.factors, which
// still hold iteration t until every mode is done. It records the consensus
// gap max_n ‖B(n)−A(n)‖_F for the Algorithm 1 stopping criterion and returns
// the convergence value max_n ‖A_{t+1}−A_t‖²_F.
func (st *solverState) step(grams []*mat.Dense, mttkrp func(mode int) *mat.Dense) float64 {
	var maxDelta, consensus float64
	for n := range st.factors {
		next, delta, gap := st.stepMode(n, grams, mttkrp(n))
		st.next[n] = next
		maxDelta = math.Max(maxDelta, delta)
		consensus = math.Max(consensus, gap)
	}
	copy(st.factors, st.next)
	st.eta = math.Min(st.opt.Rho*st.eta, st.opt.EtaMax)
	st.consensus = consensus
	return maxDelta
}

// stepMode runs mode n's fused update given E_(n)·U(n) in h, updating B(n)
// and Y(n) in place. It returns the new A(n), ‖A(n)_{t+1}−A(n)_t‖²_F and
// ‖B(n)−A(n)_{t+1}‖_F.
func (st *solverState) stepMode(n int, grams []*mat.Dense, h *mat.Dense) (*mat.Dense, float64, float64) {
	m := &st.drv
	rows, r := st.factors[n].Dims()
	// F_n = U(n)ᵀU(n) via the Hadamard-of-Grams identity (Eq. 12).
	m.f.Fill(1)
	for k, g := range grams {
		if k != n {
			m.f.HadamardInPlace(g)
		}
	}
	m.lhs.CopyFrom(m.f)
	for i := 0; i < r; i++ {
		m.lhs.Add(i, i, st.opt.Lambda+st.eta)
	}
	if err := mat.InverseSPDInto(m.inv, m.lhs, m.chol); err != nil {
		// F + (λ+η)I is SPD by construction; reaching this means the
		// factors carry non-finite values and iteration must stop.
		panic("core: normal-equation matrix not SPD: " + err.Error())
	}
	m.a, m.h, m.b, m.y = st.factors[n], h, st.aux[n], st.mult[n]
	m.next = mat.NewDense(rows, r)
	m.eta, m.invEta = st.eta, 1/st.eta
	m.nonNeg = st.opt.NonNegative
	chunks := mat.NumChunks(rows)
	m.tmp = grow(m.tmp, 2*r*chunks)
	m.sums = grow(m.sums, 2*chunks)
	m.v = nil
	if st.sp != nil && st.sp[n] != nil {
		m.project(st.sp[n].Vectors, st.sp[n].Values, st.sp[n].Full(), st.opt.AlphaFor(n), chunks)
	}
	mat.ForChunks(rows, m.rowChunk)
	var delta, gap float64
	for c := 0; c < chunks; c++ {
		delta += m.sums[2*c]
		gap += m.sums[2*c+1]
	}
	next := m.next
	// Drop the references so the previous iteration's matrices are not
	// pinned past their last use.
	m.a, m.h, m.b, m.y, m.next, m.v = nil, nil, nil, nil, nil, nil
	d := math.Sqrt(delta)
	return next, d * d, math.Sqrt(gap)
}

// project runs the projection pass, W = Vᵀ(ηA − Y) reduced in chunk order,
// and rescales W's rows in the eigenbasis (Eq. 7; with a truncated spectrum
// the Woodbury form (η+αλ)⁻¹ − η⁻¹, see graph.Spectral.InverseApply).
func (m *modeStep) project(v *mat.Dense, values []float64, full bool, alpha float64, chunks int) {
	k, r := v.Cols(), m.a.Cols()
	kr := k * r
	m.v, m.full = v, full
	m.proj = grow(m.proj, chunks*kr)
	m.w = grow(m.w, kr)
	mat.ForChunks(m.a.Rows(), m.projectChunk)
	clear(m.w)
	for c := 0; c < chunks; c++ {
		for i, p := range m.proj[c*kr : (c+1)*kr] {
			m.w[i] += p
		}
	}
	for i := 0; i < k; i++ {
		scale := 1 / (m.eta + alpha*values[i])
		if !full {
			scale -= 1 / m.eta
		}
		row := m.w[i*r : (i+1)*r]
		for j := range row {
			row[j] *= scale
		}
	}
}

// projectChunk accumulates chunk c's partial Σ_i V_iᵀ(ηA_i − Y_i) over rows
// [lo, end).
//
//distenc:hotpath
func (m *modeStep) projectChunk(c, lo, end int) {
	k, r := m.v.Cols(), m.a.Cols()
	p := m.proj[c*k*r : (c+1)*k*r]
	clear(p)
	x := m.tmp[2*r*c : 2*r*c+r]
	for i := lo; i < end; i++ {
		ai, yi := m.a.Row(i), m.y.Row(i)
		for j := range x {
			x[j] = ai[j]*m.eta - yi[j]
		}
		for kk, vk := range m.v.Row(i) {
			if vk == 0 {
				continue
			}
			pk := p[kk*r : (kk+1)*r]
			for j, xj := range x {
				pk[j] += vk * xj
			}
		}
	}
}

// rowChunk runs the row pass over rows [lo, end) of chunk c.
//
//distenc:hotpath
func (m *modeStep) rowChunk(c, lo, end int) {
	r := m.a.Cols()
	x, h := m.tmp[2*r*c:2*r*c+r], m.tmp[2*r*c+r:2*r*(c+1)]
	eta, invEta := m.eta, m.invEta
	var delta, gap float64
	for i := lo; i < end; i++ {
		ai, yi, bi, ni := m.a.Row(i), m.y.Row(i), m.b.Row(i), m.next.Row(i)
		for j := range x {
			x[j] = ai[j]*eta - yi[j]
		}
		// B_i = [(ηI + αL)⁻¹ (ηA − Y)]_i (Algorithm 1 line 4, Eq. 7).
		if m.v == nil {
			for j, xj := range x {
				bi[j] = xj * invEta
			}
		} else {
			clear(bi)
			for k, vk := range m.v.Row(i) {
				if vk == 0 {
					continue
				}
				for j, wj := range m.w[k*r : (k+1)*r] {
					bi[j] += vk * wj
				}
			}
			if !m.full {
				for j, xj := range x {
					bi[j] += invEta * xj
				}
			}
		}
		if m.nonNeg {
			for j, bj := range bi {
				if bj < 0 {
					bi[j] = 0
				}
			}
		}
		// h = A_i·F + H_i + ηB_i + Y_i: the Eq. (16) residual form.
		clear(h)
		for k, av := range ai {
			if av == 0 {
				continue
			}
			for j, fj := range m.f.Row(k) {
				h[j] += av * fj
			}
		}
		for j, hj := range m.h.Row(i) {
			h[j] += hj
			h[j] += eta * bi[j]
			h[j] += yi[j]
		}
		// A′_i = h·(F + (λ+η)I)⁻¹ (Algorithm 3 line 11).
		for k, hv := range h {
			if hv == 0 {
				continue
			}
			for j, v := range m.inv.Row(k) {
				ni[j] += hv * v
			}
		}
		// Y_i ← Y_i + η(B_i − A′_i) (line 12), and the convergence norms.
		for j, nj := range ni {
			d := nj - ai[j]
			delta += d * d
			g := bi[j] - nj
			gap += g * g
			yi[j] += eta * g
		}
	}
	m.sums[2*c], m.sums[2*c+1] = delta, gap
}

// grow returns buf resized to n, reallocating only when its capacity is
// short; contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
