package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"distenc"
)

// workload is one named input set. It fixes only what defines the problem —
// shape, rank, iteration count, TruncK, machine count and backend — and the
// serving traffic; kernel, wire format, partitioning and the serve cache
// stay at the program's defaults, so the benchmark measures what users run.
type workload struct {
	name string
	// gen builds the observed tensor and the per-mode similarities.
	gen      func(dims []int, nnz, rank int) problem
	dims     []int
	nnz      int
	rank     int
	iters    int
	truncK   int
	machines int
	tcp      bool
	// rate is the open-loop predict rate in batches/s, about a quarter of
	// the closed-loop capacity measured at the commit that defined the
	// benchmark (2-core Intel Xeon host, GOMAXPROCS 2: 19k, 8.6k and 11k
	// batches/s). At half capacity the p99 moved 2.5 to 11 ms between runs
	// of the same code on that shared host.
	rate float64
	// serving marks the workload whose point is serving: it fits
	// generations models, asks the daemon for Zipf-skewed cells, hot-swaps
	// between the models, and takes set-up time and peak memory from the
	// daemon. A fitting workload repeats one fit for fitShare of the run and
	// asks for its held-out cells.
	serving bool
}

type problem struct {
	train, test *distenc.Tensor
	sims        []*distenc.Similarity
}

const (
	// modelSeed fixes each workload's planted model, its observed cells and
	// the solver's initialization, which are part of the workload's
	// definition like its shape. The run's -seed draws which tenth of the
	// cells is held out and which cells are served, so accuracy and time
	// compare across seeds instead of following each seed's planted model.
	modelSeed = 1

	batchCells = 64  // cells per predict request
	clients    = 2   // predict connections
	minSolves  = 3   // fewest repeated fits a run medians over
	fitShare   = 0.5 // share of a fitting workload's seconds spent fitting

	// A serving workload's models, swaps and daemon spawns.
	generations  = 3 // models fitted from distinct initialization seeds
	swaps        = 4 // hot swaps, evenly spaced over the swap segment
	daemonStarts = 9 // spawns probed for set-up time; the last one serves
)

var workloads = []workload{
	{
		name:     "fit-fibers",
		gen:      facebookProblem,
		dims:     []int{6000, 6000, 5},
		nnz:      1_000_000,
		rank:     8,
		iters:    20,
		machines: 2,
		rate:     5000,
	},
	{
		name:     "fit-aux-tcp",
		gen:      linearProblem,
		dims:     []int{16000, 16000, 1600},
		nnz:      40_000,
		rank:     10,
		iters:    10,
		truncK:   64,
		machines: 2,
		tcp:      true,
		rate:     2500,
	},
	{
		name:     "serve-zipf",
		gen:      plainLinearProblem,
		dims:     []int{200_000, 50_000, 100},
		nnz:      200_000,
		rank:     16,
		iters:    6,
		machines: 2,
		rate:     3000,
		serving:  true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// holdOut splits off a tenth of the observed cells, drawn by the run's
// seed, for test_rmse.
func holdOut(p problem, seed uint64) problem {
	p.train, p.test = p.train.Split(0.1, rand.New(rand.NewPCG(seed, 0x7e57)))
	return p
}

// facebookProblem is the FacebookSim users×users×days link tensor without
// its similarities.
func facebookProblem(dims []int, nnz, rank int) problem {
	if dims[0] != dims[1] {
		panic(fmt.Sprintf("facebook problem needs square user modes, got %v", dims))
	}
	d := distenc.GenerateFacebook(distenc.LinkPredConfig{
		Users: dims[0], Days: dims[2], Rank: rank, NNZ: nnz, Noise: 0.1, Seed: modelSeed,
	})
	return problem{train: d.Tensor}
}

// linearProblem is the §IV-A linear-factor synthetic with its tri-diagonal
// similarity on every mode.
func linearProblem(dims []int, nnz, rank int) problem {
	d := distenc.GenerateLinearFactor(dims, rank, nnz, modelSeed)
	return problem{train: d.Tensor, sims: d.Sims}
}

// plainLinearProblem is linearProblem without similarities: a Laplacian over
// a 200000-row mode is the fit a serving workload does not need.
func plainLinearProblem(dims []int, nnz, rank int) problem {
	p := linearProblem(dims, nnz, rank)
	p.sims = nil
	return p
}
