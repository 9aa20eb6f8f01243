package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"distenc"
	"distenc/internal/rdd"
	"distenc/internal/transport"
)

// The distenc-serve predict protocol, as the daemon speaks it: a framed
// hello each way, then pipelined FIFO request/response frames.
//
//	request   reqID u64 | op u8 | nameLen u16 | name | order u16 | count u32 | idx u32…
//	response  reqID u64 | status u8 | count × f64 bits
var serveHello = []byte{'D', 'T', 'S', 1}

const (
	opPredict  = 1
	statusOK   = 0
	modelName  = "bench"
	checkEvery = 16 // every 16th response is checked against Kruskal.At
)

// predictConn is one pipelined predict connection: requests may be written
// while earlier responses are still outstanding, which the open loop needs
// and serve.Client, with its sequential round trips, does not allow.
type predictConn struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	buf, in []byte
	out     []float64
}

func newPredictConn(conn net.Conn) (*predictConn, error) {
	c := &predictConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), bw: bufio.NewWriterSize(conn, 64<<10)}
	if err := transport.SendHello(c.bw, serveHello); err != nil {
		return nil, fmt.Errorf("predict hello: %w", err)
	}
	if err := transport.ExpectHello(c.br, serveHello); err != nil {
		return nil, fmt.Errorf("predict hello: %w", err)
	}
	return c, nil
}

func dialPredict(addr string) (*predictConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := newPredictConn(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *predictConn) send(reqID uint64, order int, flat []int32) error {
	b := binary.LittleEndian.AppendUint64(c.buf[:0], reqID)
	b = append(b, opPredict)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(modelName)))
	b = append(b, modelName...)
	b = binary.LittleEndian.AppendUint16(b, uint16(order))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(flat)/order))
	for _, v := range flat {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	c.buf = b
	if err := rdd.WriteFrame(c.bw, b); err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv reads the next response, which must answer reqID. It reuses the
// connection's buffers (the returned slice is valid until the next call), so
// the client's own garbage collection does not compete with the daemon for
// the host's cores.
func (c *predictConn) recv(reqID uint64) ([]float64, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 9 || n > rdd.DefaultMaxFrame {
		return nil, fmt.Errorf("response frame of %d bytes", n)
	}
	if cap(c.in) < n {
		c.in = make([]byte, n)
	}
	resp := c.in[:n]
	if _, err := io.ReadFull(c.br, resp); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint64(resp); got != reqID {
		return nil, fmt.Errorf("response for request %d, want %d", got, reqID)
	}
	if resp[8] != statusOK {
		return nil, fmt.Errorf("status %d: %s", resp[8], resp[9:])
	}
	payload := resp[9:]
	c.out = c.out[:0]
	for i := 0; i+8 <= len(payload); i += 8 {
		c.out = append(c.out, math.Float64frombits(binary.LittleEndian.Uint64(payload[i:])))
	}
	return c.out, nil
}

func (c *predictConn) Close() error { return c.conn.Close() }

// matchesAny checks that a response equals Kruskal.At bit for bit on one of
// the served generations — a batch is answered by one generation whole.
func matchesAny(models []*distenc.Kruskal, order int, flat []int32, got []float64) error {
	if len(got)*order != len(flat) {
		return fmt.Errorf("%d predictions for %d cells", len(got), len(flat)/order)
	}
	for _, k := range models {
		ok := true
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(k.At(flat[i*order:(i+1)*order])) {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
	}
	return fmt.Errorf("batch of %d cells matches no served generation bit for bit", len(got))
}

// openResult is one connection's open-loop phase.
type openResult struct {
	due    []time.Time
	latMs  []float64 // receive time minus due time; +Inf for a failed request
	rttUs  []float64 // receive time minus send time, successful requests
	lagMs  []float64 // send time minus due time
	failed int
	errs   []error
}

type inflight struct {
	id        uint64
	batch     int
	due, sent time.Time
	sendErr   error
}

// openLoop sends batch i at start + i/rate whatever the replies do, and
// times each reply from its due time, so a stall also charges the requests
// queued behind it. check, when non-nil, verifies the sampled responses.
func openLoop(c *predictConn, batches [][]int32, order int, rate float64, start time.Time, dur time.Duration,
	check func(flat []int32, got []float64) error, tr *tracer) openResult {
	n := int(dur.Seconds() * rate)
	queue := make(chan inflight, n) // sized to the number of sends
	go func() {
		defer close(queue)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			f := inflight{id: uint64(i + 1), batch: i % len(batches), due: due, sent: time.Now()}
			f.sendErr = c.send(f.id, order, batches[f.batch])
			queue <- f
			if f.sendErr != nil {
				return
			}
		}
	}()
	r := openResult{
		due:   make([]time.Time, 0, n),
		latMs: make([]float64, 0, n),
		rttUs: make([]float64, 0, n),
		lagMs: make([]float64, 0, n),
	}
	var broken error
	for f := range queue {
		r.lagMs = append(r.lagMs, ms(f.sent.Sub(f.due)))
		r.due = append(r.due, f.due)
		if f.sendErr != nil || broken != nil {
			r.fail(errors.Join(f.sendErr, broken))
			continue
		}
		got, err := c.recv(f.id)
		now := time.Now()
		if err != nil {
			r.fail(err)
			broken = err
			c.Close() // unblock a sender stuck on a dead connection
			continue
		}
		if check != nil && f.id%checkEvery == 0 {
			if err := check(batches[f.batch], got); err != nil {
				r.fail(err)
				continue
			}
		}
		r.latMs = append(r.latMs, ms(now.Sub(f.due)))
		r.rttUs = append(r.rttUs, us(now.Sub(f.sent)))
		if tr != nil {
			id := tr.newTrace()
			root := tr.add(id, 0, "bench.request", f.due, now)
			tr.add(id, root, "serve.predict", f.sent, now)
		}
	}
	return r
}

// count records the phase's requests as operations.
func (r *openResult) count(o *ops) {
	o.ok(int64(len(r.latMs) - r.failed))
	o.failed.Add(int64(r.failed))
	o.attempted.Add(int64(r.failed))
	for _, err := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED predict:", err)
	}
}

func (r *openResult) fail(err error) {
	r.failed++
	r.latMs = append(r.latMs, math.Inf(1))
	if len(r.errs) < 3 {
		r.errs = append(r.errs, err)
	}
}

// closedLoop keeps window requests outstanding on the connection until
// start+dur and returns the successful responses counted per slot of width
// slot after start.
func closedLoop(c *predictConn, batches [][]int32, order, window int, start time.Time, dur, slot time.Duration,
	check func(flat []int32, got []float64) error) (done []int, failed int, err error) {
	deadline := start.Add(dur)
	done = make([]int, int(dur/slot)+1)
	var next, acked uint64
	batchOf := func(id uint64) []int32 { return batches[int(id-1)%len(batches)] }
	for ; next < uint64(window); next++ {
		if err := c.send(next+1, order, batchOf(next+1)); err != nil {
			return done, failed + 1, err
		}
	}
	for acked < next {
		acked++
		got, err := c.recv(acked)
		if err != nil {
			return done, failed + 1, err
		}
		if check != nil && acked%checkEvery == 0 {
			if err := check(batchOf(acked), got); err != nil {
				failed++
				continue
			}
		}
		now := time.Now()
		done[min(len(done)-1, int(now.Sub(start)/slot))]++
		if now.Before(deadline) {
			next++
			if err := c.send(next, order, batchOf(next)); err != nil {
				return done, failed + 1, err
			}
		}
	}
	return done, failed, nil
}

// daemon is one spawned distenc-serve process at its default flags; only
// the listen addresses are set, to ephemeral loopback ports.
type daemon struct {
	cmd          *exec.Cmd
	addr, admin  string
	stderrClosed chan struct{}
}

func startDaemon(bin, ckpt string) (*daemon, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-model", modelName+"="+ckpt)
	cmd.Stdout = os.Stderr
	// The daemon must not outlive a benchmark that dies before stop.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderrClosed: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	// Reads the daemon's log until it exits (EOF), picking out the two
	// listen addresses; stop waits for it through stderrClosed.
	go func() {
		defer close(d.stderrClosed)
		sc := bufio.NewScanner(pipe)
		var a [2]string
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "distenc-serve: predict plane on "); ok {
				a[0] = v
			} else if v, ok := strings.CutPrefix(line, "distenc-serve: admin plane on http://"); ok {
				a[1] = v
				addrs <- a
			} else if !strings.Contains(line, "distenc-serve: loaded ") {
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	select {
	case a := <-addrs:
		d.addr, d.admin = a[0], a[1]
		return d, nil
	case <-d.stderrClosed:
		err := cmd.Wait()
		return nil, fmt.Errorf("distenc-serve exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("distenc-serve did not report its addresses within 60s")
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after 10s) and reaps it.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.stderrClosed:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.stderrClosed
	}
	err := d.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) && !exit.Exited() {
		return fmt.Errorf("distenc-serve did not drain: %v", err)
	}
	return err
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// swap hot-swaps the served model through the admin plane.
func (d *daemon) swap(client *http.Client, ckpt string) error {
	body, _ := json.Marshal(map[string]string{"checkpoint": ckpt})
	resp, err := client.Post("http://"+d.admin+"/models/"+modelName, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("swap: %s: %s", resp.Status, msg)
	}
	return nil
}

// cacheHitRate reads the model's hot-row cache hit rate from GET /stats.
func (d *daemon) cacheHitRate(client *http.Client) (float64, error) {
	resp, err := client.Get("http://" + d.admin + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var snap []struct {
		Model       string `json:"model"`
		CacheHits   int64  `json:"cacheHits"`
		CacheMisses int64  `json:"cacheMisses"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, fmt.Errorf("decoding /stats: %w", err)
	}
	for _, s := range snap {
		if s.Model == modelName {
			if s.CacheHits+s.CacheMisses == 0 {
				return 0, nil
			}
			return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses), nil
		}
	}
	return 0, fmt.Errorf("/stats lists no model %q", modelName)
}

// probe spawns the daemon on ckpt and sends one batch until a correct
// answer arrives; the returned duration is spawn to first correct predict.
func probe(bin, ckpt string, model *distenc.Kruskal, order int, batch []int32) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(bin, ckpt)
	if err != nil {
		return nil, 0, err
	}
	c, err := dialPredict(d.addr)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	defer c.Close()
	if err := c.send(1, order, batch); err != nil {
		d.stop()
		return nil, 0, err
	}
	got, err := c.recv(1)
	if err == nil {
		err = matchesAny([]*distenc.Kruskal{model}, order, batch, got)
	}
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// parallel runs fn once per client connection and waits for all of them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}
