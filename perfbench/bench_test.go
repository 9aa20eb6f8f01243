package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"distenc"
	"distenc/internal/rdd"
	"distenc/internal/transport"
)

func TestMain(m *testing.M) {
	// fit-aux-tcp re-execs this test binary as its transport workers.
	distenc.WorkerHook()
	os.Exit(m.Run())
}

// tiny shrinks a workload to a seconds-long instance with the same code
// path: same generator, backend, serving traffic and checks.
func tiny(w workload) workload {
	w.dims = []int{40, 40, 6}
	w.nnz = 3000
	w.iters = 3
	if w.truncK > 0 {
		w.truncK = 4
	}
	w.rate = 400
	return w
}

func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "distenc-serve")
	out, err := exec.Command("go", "build", "-o", bin, "distenc/cmd/distenc-serve").CombinedOutput()
	if err != nil {
		t.Fatalf("building distenc-serve: %v\n%s", err, out)
	}
	return bin
}

func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons and workers")
	}
	if raceEnabled {
		t.Skip("the benchmark refuses race-instrumented builds")
	}
	bin := buildServe(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				cfg := config{workload: w.name, seed: 3, seconds: 2, trace: trace, serveBin: bin, workDir: t.TempDir()}
				res, err := runWith(tiny(w), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %q", d.name, v, d.unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workload and
// metric lists in step with what the program emits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

// fakeTransport stores blocks in memory; machine 1 is unreachable.
type fakeTransport struct{ blocks map[rdd.BlockID][]byte }

func (f *fakeTransport) Workers() int { return 2 }

func (f *fakeTransport) Put(m int, id rdd.BlockID, data []byte) error {
	if m == 1 {
		return fmt.Errorf("put to machine 1: %w", rdd.ErrMachineUnreachable)
	}
	f.blocks[id] = append([]byte(nil), data...)
	return nil
}

func (f *fakeTransport) Fetch(m int, id rdd.BlockID) ([]byte, error) {
	if m == 1 {
		return nil, fmt.Errorf("fetch from machine 1: %w", rdd.ErrMachineUnreachable)
	}
	return f.blocks[id], nil
}

func (f *fakeTransport) Drop(int, int64) {}
func (f *fakeTransport) Kill(int) error  { return nil }
func (f *fakeTransport) Close() error    { return nil }

func TestCountingTransportPassesErrorsAndCountsBytes(t *testing.T) {
	ct := &countingTransport{inner: &fakeTransport{blocks: map[rdd.BlockID][]byte{}}}
	from := time.Now()
	a, b := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 1}, rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 2}
	if err := ct.Put(0, a, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := ct.Put(0, b, make([]byte, 24)); err != nil {
		t.Fatal(err)
	}
	if err := ct.Put(1, a, make([]byte, 7)); !errors.Is(err, rdd.ErrMachineUnreachable) {
		t.Fatalf("Put error %v does not wrap ErrMachineUnreachable", err)
	}
	got, err := ct.Fetch(0, a)
	if err != nil || len(got) != 1000 {
		t.Fatalf("Fetch = %d bytes, %v", len(got), err)
	}
	if _, err := ct.Fetch(1, b); !errors.Is(err, rdd.ErrMachineUnreachable) {
		t.Fatalf("Fetch error %v does not wrap ErrMachineUnreachable", err)
	}
	var puts, fetches, putBytes, fetchBytes int
	for _, c := range ct.callsSince(from) {
		if c.put {
			puts++
			putBytes += c.bytes
		} else {
			fetches++
			fetchBytes += c.bytes
		}
	}
	if puts != 3 || fetches != 2 || putBytes != 1031 || fetchBytes != 1000 {
		t.Errorf("counted %d puts (%d B), %d fetches (%d B); want 3 (1031 B), 2 (1000 B)", puts, putBytes, fetches, fetchBytes)
	}
	if n := ct.errors.Load(); n != 2 {
		t.Errorf("counted %d errors, want 2", n)
	}
}

// stallingServer speaks the predict protocol on conn but reads nothing for
// stall after the hello, then answers every request at once with zeros.
func stallingServer(conn net.Conn, stall time.Duration) error {
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	if err := transport.ExpectHello(br, serveHello); err != nil {
		return err
	}
	if err := transport.SendHello(bw, serveHello); err != nil {
		return err
	}
	time.Sleep(stall)
	for {
		req, err := rdd.ReadFrame(br, rdd.DefaultMaxFrame)
		if err != nil {
			return nil // client closed
		}
		nameLen := int(binary.LittleEndian.Uint16(req[9:]))
		count := int(binary.LittleEndian.Uint32(req[11+nameLen+2:]))
		resp := binary.LittleEndian.AppendUint64(nil, binary.LittleEndian.Uint64(req))
		resp = append(resp, statusOK)
		resp = append(resp, make([]byte, 8*count)...)
		if err := rdd.WriteFrame(bw, resp); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	client, server := net.Pipe()
	const stall = 80 * time.Millisecond
	done := make(chan error, 1)
	go func() { done <- stallingServer(server, stall) }()
	c, err := newPredictConn(client)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]int32{{0, 1, 2, 3, 4, 5}}
	start := time.Now()
	r := openLoop(c, batches, 3, 1000, start, 40*time.Millisecond, nil, nil)
	c.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || len(r.latMs) != 40 {
		t.Fatalf("%d requests, %d failed; want 40, 0", len(r.latMs), r.failed)
	}
	// The pipe blocks the sender for the stall, so request i (due at i ms)
	// went out late: timed from its due time it waited about stall-i ms,
	// which a send-to-receive timer would not see.
	for i, lat := range r.latMs {
		if want := float64(stall/time.Millisecond) - float64(i) - 5; lat < want {
			t.Errorf("request %d: latency %.2f ms, want >= %.0f ms from its due time", i, lat, want)
		}
	}
	if lag := quantile(r.lagMs, 1); lag < float64(stall/time.Millisecond)-10 {
		t.Errorf("generator lag %.2f ms, want about the %v stall", lag, stall)
	}
	if rtt := r.rttUs[len(r.rttUs)-1] / 1000; rtt >= r.latMs[len(r.latMs)-1] {
		t.Errorf("last request: send-to-receive %.2f ms not below due-to-receive %.2f ms", rtt, r.latMs[len(r.latMs)-1])
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{id: 1, trace: 1, name: "core.solve", start: at(0), end: at(100)},
		{id: 2, parent: 1, trace: 1, name: "rdd.stage", start: at(10), end: at(40)},
		{id: 3, parent: 1, trace: 1, name: "rdd.stage", start: at(30), end: at(60)}, // overlaps id 2
		{id: 4, parent: 2, trace: 1, name: "transport.put", start: at(20), end: at(25)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"core": 50 * time.Millisecond, "rdd": 55 * time.Millisecond, "transport": 5 * time.Millisecond}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("%s self time %v, want %v", l, self[l], d)
		}
	}
}

func TestZipfRowsFollowExponent(t *testing.T) {
	const n, draws = 1000, 200_000
	z := newZipfRows(rand.New(rand.NewPCG(5, 6)), n, zipfExponent)
	counts := make(map[int32]int)
	for i := 0; i < draws; i++ {
		counts[z.next()]++
	}
	// The most popular row is asked for 1/H(n, s) of the time, and the
	// rank-k row k^-s times as often.
	h := 0.0
	for k := 1; k <= n; k++ {
		h += math.Pow(float64(k), -zipfExponent)
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	if got, want := float64(freqs[0])/draws, 1/h; math.Abs(got-want) > 0.05*want {
		t.Errorf("top row share %.4f, want %.4f", got, want)
	}
	if got, want := float64(freqs[0])/float64(freqs[9]), math.Pow(10, zipfExponent); math.Abs(got-want) > 0.15*want {
		t.Errorf("rank 1 / rank 10 frequency %.2f, want %.2f", got, want)
	}
	// The hot rows are scattered, not the first rows of the mode.
	if counts[0] == freqs[0] && counts[1] == freqs[1] {
		t.Errorf("rows 0 and 1 are the two most popular; ranks are not permuted")
	}
}

func TestCalmKeepsQuietSlotsOrFallsBack(t *testing.T) {
	slots, fallback := calm([]float64{0.10, 0.01, 0.00, 0.05, 0.02, 0.30, 0.03, 0.04})
	if fallback || len(slots) != 3 {
		t.Errorf("kept %v (fallback %v), want the 3 slots at or under 2%% steal", slots, fallback)
	}
	slots, fallback = calm([]float64{0.10, 0.05, 0.30, 0.04, 0.06, 0.07, 0.08, 0.09})
	if !fallback || len(slots) != 2 || slots[0] != 3 || slots[1] != 1 {
		t.Errorf("kept %v (fallback %v), want the least-steal quarter [3 1] and fallback", slots, fallback)
	}
}
