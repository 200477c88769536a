package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sigtable/internal/server"
	"sigtable/internal/txn"
)

// conns is the load generator's connection budget: one per CPU of the
// two-CPU machine the benchmark is sized for.
const conns = 2

// sigserver is one running server process.
type sigserver struct {
	cmd    *exec.Cmd
	exited chan struct{}
	base   string
	setup  time.Duration // exec to the first successful /v1/stats
}

// startServer execs sigserver on the dataset file and waits until
// /v1/stats answers.
func startServer(bin, dataPath string, extra []string, logPath string) (*sigserver, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-data", dataPath, "-addr", addr, "-quiet"}, extra...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the harness is killed, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sigserver: %w", err)
	}
	s := &sigserver{cmd: cmd, exited: make(chan struct{}), base: "http://" + addr}
	go func() { _ = cmd.Wait(); close(s.exited) }()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/v1/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("sigserver exited during start-up; see %s", logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Since(start) > 150*time.Second {
			s.stop()
			return nil, fmt.Errorf("sigserver did not answer /v1/stats within 150s")
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain and kills the
// process if it has not exited after 20 seconds. It returns once the
// process is gone.
func (s *sigserver) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (s *sigserver) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// msPerTick converts /proc clock ticks (USER_HZ, 100 on Linux) to ms.
const msPerTick = 10

// cpuTicks reads the process's user plus system CPU time, all threads,
// in clock ticks; 0 if /proc cannot be read.
func (s *sigserver) cpuTicks() uint64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	_, rest, _ := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseUint(f[11], 10, 64)
	stime, _ := strconv.ParseUint(f[12], 10, 64)
	return utime + stime
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// outcome is what happened to one request.
type outcome struct {
	req     *request
	body    []byte        // the 200 reply, checked after the timed phases
	latency time.Duration // from the due time (open loop) or the send (closed loop)
	done    time.Duration // closed loop: completion, from the phase start
	failed  error         // refused, errored, timed out or interrupted
	refused bool          // 429
	wrong   error         // the answer failed the oracle check
	pruning float64       // pruningPct of an exact query
	exactQ  bool          // pruning applies
	recall  int           // early-terminated query: 1 if it reached the exact k-th value
	approx  bool          // recall applies
}

var errInterrupted = errors.New("search interrupted by the server's deadline")

// checker holds answers to the oracle. On a read-only workload exact
// answers are checked against the precomputed seqscan answers; on a
// workload with writes the live set moves while queries run, so only
// the per-neighbor checks apply until the quiesced check at the end.
type checker struct {
	fx       *fixture
	m        *mirror
	readOnly bool
}

// send posts one request and keeps its reply for checking later, so
// the timed phases spend no client CPU on decoding answers.
func send(c *http.Client, base string, r *request, from time.Time) outcome {
	o := outcome{req: r}
	resp, err := c.Post(base+r.path(), "application/json", bytes.NewReader(r.body))
	if err != nil {
		o.failed = err
		o.latency = time.Since(from)
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(from)
	switch {
	case err != nil:
		o.failed = err
		return o
	case resp.StatusCode != http.StatusOK:
		o.failed = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
		o.refused = resp.StatusCode == http.StatusTooManyRequests
		return o
	}
	o.body = body
	return o
}

// checkAll checks replies in request order: every insert and delete
// first, so the mirror knows every TID a query can return, then the
// searches.
func (ck *checker) checkAll(outs []outcome) {
	for pass := 0; pass < 2; pass++ {
		for i := range outs {
			o := &outs[i]
			mutation := o.req.kind == opInsert || o.req.kind == opDelete
			if o.body != nil && mutation == (pass == 0) {
				ck.check(o.req, o.body, o)
			}
		}
	}
}

func (ck *checker) check(r *request, body []byte, o *outcome) {
	switch r.kind {
	case opQuery:
		var q server.QueryResponse
		if err := json.Unmarshal(body, &q); err != nil {
			o.wrong = err
			return
		}
		if q.Interrupted {
			o.failed = errInterrupted
			return
		}
		o.wrong = ck.answer(r, 0, q.Neighbors, o)
		o.pruning, o.exactQ = q.Pruning, r.frac == 0
	case opBatch:
		var b server.BatchResponse
		if err := json.Unmarshal(body, &b); err != nil {
			o.wrong = err
			return
		}
		if len(b.Results) != len(r.targets) {
			o.wrong = fmt.Errorf("batch of %d answered %d slots", len(r.targets), len(b.Results))
			return
		}
		for i, res := range b.Results {
			if res.Interrupted {
				o.failed = errInterrupted
				return
			}
			if err := ck.answer(r, i, res.Neighbors, o); err != nil {
				o.wrong = fmt.Errorf("batch slot %d: %w", i, err)
				return
			}
		}
	case opInsert:
		var in server.InsertResponse
		if err := json.Unmarshal(body, &in); err != nil {
			o.wrong = err
			return
		}
		tids := in.TIDs
		if !r.multi {
			tids = []txn.TID{in.TID}
		}
		o.wrong = ck.m.insert(tids, r.txns)
	case opDelete:
		var d server.DeleteResponse
		if err := json.Unmarshal(body, &d); err != nil {
			o.wrong = err
			return
		}
		if d.Deleted != r.tid {
			o.wrong = fmt.Errorf("delete of %d answered %d", r.tid, d.Deleted)
			return
		}
		ck.m.remove(r.tid)
	}
}

// answer checks the k-NN answer for slot i of a request.
func (ck *checker) answer(r *request, i int, got []server.Neighbor, o *outcome) error {
	t := ck.fx.pool[r.targets[i]]
	if r.oracle != nil {
		return checkNeighbors(ck.m, t, r.k, got, r.oracle, nil)
	}
	if !ck.readOnly {
		return checkNeighbors(ck.m, t, r.k, got, nil, nil)
	}
	exact := ck.fx.exact[r.targets[i]]
	if r.frac == 0 {
		return checkNeighbors(ck.m, t, r.k, got, exact, nil)
	}
	if err := checkNeighbors(ck.m, t, r.k, got, nil, exact); err != nil {
		return err
	}
	o.approx = true
	if len(got) == r.k && got[r.k-1].Value >= exact[r.k-1].Value {
		o.recall = 1
	}
	return nil
}

// openLoop sends each request at its due time, whatever the state of
// earlier ones, over at most conns connections. Latency runs from the
// due time, so a stall also charges the requests queued behind it. It
// returns the outcomes in request order and each send's lag behind its
// due time.
func openLoop(c *http.Client, base string, reqs []*request) ([]outcome, []time.Duration) {
	out := make([]outcome, len(reqs))
	lags := make([]time.Duration, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(due)
		wg.Add(1)
		go func(i int, r *request) {
			defer wg.Done()
			out[i] = send(c, base, r, due)
		}(i, r)
	}
	wg.Wait()
	return out, lags
}

// closedLoop runs conns clients that each send the stream's next
// request as soon as their previous one completes, for dur, and
// returns the outcomes.
func closedLoop(c *http.Client, base string, s *stream, dur time.Duration) []outcome {
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := s.next()
				o := send(c, base, r, time.Now())
				o.done = time.Since(start)
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// quiescedCheck queries sc.checkN pool targets exactly once the writes
// have stopped and holds the answers to seqscan over the mirrored live
// set.
func quiescedCheck(ck *checker, c *http.Client, base string) ([]outcome, error) {
	live, tids := ck.m.live()
	n := ck.fx.sc.checkN
	if n > len(ck.fx.pool) {
		n = len(ck.fx.pool)
	}
	exact := oracle(live, ck.fx.pool[:n])
	var out []outcome
	for i := range exact {
		for j := range exact[i] {
			exact[i][j].TID = tids[exact[i][j].TID]
		}
		body, err := json.Marshal(server.QueryRequest{Items: ck.fx.pool[i], F: "cosine", K: maxK})
		if err != nil {
			return nil, err
		}
		r := &request{kind: opQuery, k: maxK, targets: []int{i}, oracle: exact[i], body: body}
		o := send(c, base, r, time.Now())
		if o.body != nil {
			ck.check(r, o.body, &o)
		}
		out = append(out, o)
	}
	return out, nil
}

// completed counts the requests that got a 200 reply.
func completed(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.failed == nil {
			n++
		}
	}
	return n
}

// completedRate returns the requests of a closed-loop slice that
// completed within it, per second.
func completedRate(outs []outcome, slice time.Duration) float64 {
	n := 0
	for _, o := range outs {
		if o.failed == nil && o.done < slice {
			n++
		}
	}
	return float64(n) / slice.Seconds()
}

// percentile returns the p-quantile (0..1) of the durations in ms by
// the nearest-rank rule, or 0 with no samples.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(float64(len(s))*p+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i].Nanoseconds()) / 1e6
}
