package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sigtable/internal/gen"
	"sigtable/internal/seqscan"
	"sigtable/internal/server"
	"sigtable/internal/simfun"
	"sigtable/internal/topk"
	"sigtable/internal/txn"
)

// scale sizes a fixture. The benchmark runs fullScale; the self-test
// runs a tiny one.
type scale struct {
	txns    int // D, transactions in the dataset
	spare   int // transactions generated after the dataset, for targets and inserts
	pool    int // distinct query targets requests draw from
	batch   int // targets per /v1/batch request
	insertN int // transactions per batched /v1/insert
	checkN  int // quiesced oracle checks after an ingest run
	traceN  int // requests the traced run replays
	baseN   int // queries the baselines are timed on
}

var fullScale = scale{txns: 200000, spare: 8192, pool: 256, batch: 16, insertN: 32, checkN: 32, traceN: 240, baseN: 48}

// datasetSeed fixes the generator, so every run indexes the same
// T10.I6.D200K dataset and draws from the same target pool; the run's
// seed picks which targets each request asks for, the inserted
// transactions, the request order and the arrival times. Datasets from
// different generator seeds differ in how well the signatures prune,
// which moves latency by far more than the bounds a regression is
// judged by.
const datasetSeed = 1999

// maxK is the largest k any request asks for; the oracle keeps this many.
const maxK = 10

// cosine is the similarity every request uses.
var cosine simfun.Func = simfun.Cosine{}

// fixture is the generated input of one run: the dataset sigserver
// indexes, the target pool and the fresh transactions inserts draw
// from. Targets and fresh transactions come from the same generator as
// the dataset, as in the paper's experiments.
type fixture struct {
	sc    scale
	data  *txn.Dataset
	pool  []txn.Transaction
	fresh []txn.Transaction
	exact [][]topk.Candidate // per pool target, the seqscan top-maxK
}

// newFixture generates the dataset (T10.I6 with N=1000 items and
// L=2000 itemsets, the paper's defaults), the target pool and the
// fresh transactions inserts draw from. It is the same for every seed.
func newFixture(sc scale) (*fixture, error) {
	g, err := gen.New(gen.Config{Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	fx := &fixture{sc: sc, data: g.Dataset(sc.txns)}
	spare := g.Queries(sc.spare)
	fx.pool, fx.fresh = spare[:sc.pool], spare[sc.pool:]
	return fx, nil
}

// computeOracle runs seqscan.KNearest for every pool target on two
// goroutines: the independent oracle exact answers are held to. With
// cacheDir set it keeps the answers there under a hash of the dataset
// and pool, since every run of a checkout generates the same fixture.
func (fx *fixture) computeOracle(cacheDir string) error {
	if cacheDir == "" {
		fx.exact = oracle(fx.data, fx.pool)
		return nil
	}
	h := sha256.New()
	if _, err := fx.data.WriteTo(h); err != nil {
		return err
	}
	for _, t := range fx.pool {
		fmt.Fprintln(h, t)
	}
	path := filepath.Join(cacheDir, fmt.Sprintf("oracle-%x.gob", h.Sum(nil)[:8]))
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		if gob.NewDecoder(f).Decode(&fx.exact) == nil && len(fx.exact) == len(fx.pool) {
			return nil
		}
	}
	fx.exact = oracle(fx.data, fx.pool)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fx.exact); err != nil {
		return err
	}
	// Write then rename, so a run that dies midway leaves no torn file.
	tmp := fmt.Sprintf("%s.%d", path, os.Getpid())
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func oracle(d *txn.Dataset, targets []txn.Transaction) [][]topk.Candidate {
	out := make([][]topk.Candidate, len(targets))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(targets); i += workers {
				out[i] = seqscan.KNearest(d, targets[i], cosine, maxK)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// trueValue is the similarity of a transaction to a target, computed
// the way seqscan computes it.
func trueValue(target, t txn.Transaction) float64 {
	f := cosine
	if ta, ok := f.(simfun.TargetAware); ok {
		f = ta.Bind(target)
	}
	x, y := txn.MatchHamming(target, t)
	return f.Score(x, y)
}

// opKind is a request type.
type opKind int

const (
	opQuery opKind = iota
	opBatch
	opInsert
	opDelete
)

var opNames = [...]string{"query", "batch", "insert", "delete"}

func (k opKind) String() string { return opNames[k] }

// request is one generated request. Everything about it, including its
// body, is fixed when the stream is generated.
type request struct {
	due     time.Duration // open loop: send time after the phase starts
	kind    opKind
	k       int
	frac    float64 // maxScanFraction; 0 is an exact query
	targets []int   // pool indexes: one for a query, sc.batch for a batch
	txns    []txn.Transaction
	multi   bool             // insert: sent as a batch
	tid     txn.TID          // delete
	oracle  []topk.Candidate // exact answer to hold a query to, overriding the fixture's
	body    []byte
}

func (r *request) path() string { return "/v1/" + r.kind.String() }

// mixEntry is one weighted request shape of a workload's mix.
type mixEntry struct {
	weight int
	kind   opKind
	k      int
	frac   float64
	multi  bool // insert: a batch of sc.insertN transactions
}

// stream generates a workload's requests from a seed. The same seed
// gives the same requests in the same order. Request types are dealt
// from a shuffled deck holding each mix entry weight times, and targets
// from a shuffled deck of the pool, so every deck-sized window of the
// stream has the mix's exact proportions and asks for every target
// equally often: seeds differ in order and arrival times, not in how
// much work they ask for.
type stream struct {
	mu      sync.Mutex
	fx      *fixture
	mix     []mixEntry
	deck    []mixEntry
	targets []int
	rng     *rand.Rand
	delete  []int // initial TIDs in the order deletes take them
	nextDl  int
}

// newStream returns part 0 or 1 of the seed's stream. The two parts
// draw independently and delete disjoint halves of the initial TIDs.
func newStream(fx *fixture, mix []mixEntry, seed int64, part int) *stream {
	s := &stream{fx: fx, mix: mix, rng: rand.New(rand.NewSource(seed*7919 + 17 + int64(part)*104729))}
	for _, m := range mix {
		if m.kind == opDelete {
			for i, id := range rand.New(rand.NewSource(seed)).Perm(fx.data.Len()) {
				if i%2 == part {
					s.delete = append(s.delete, id)
				}
			}
			break
		}
	}
	return s
}

// next returns the next request of the stream. Deletes take distinct
// TIDs of the initial dataset and nothing deletes an inserted TID, so
// every delete finds a live transaction.
func (s *stream) next() *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.deck) == 0 {
		for _, m := range s.mix {
			for i := 0; i < m.weight; i++ {
				s.deck = append(s.deck, m)
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	m := s.deck[len(s.deck)-1]
	s.deck = s.deck[:len(s.deck)-1]
	target := func() int {
		if len(s.targets) == 0 {
			s.targets = s.rng.Perm(len(s.fx.pool))
		}
		t := s.targets[len(s.targets)-1]
		s.targets = s.targets[:len(s.targets)-1]
		return t
	}
	r := &request{kind: m.kind, k: m.k, frac: m.frac, multi: m.multi}
	var body interface{}
	switch m.kind {
	case opQuery:
		r.targets = []int{target()}
		body = server.QueryRequest{Items: s.fx.pool[r.targets[0]], F: "cosine", K: m.k, MaxScanFraction: m.frac}
	case opBatch:
		req := server.BatchRequest{F: "cosine", K: m.k, MaxScanFraction: m.frac, SharedScan: true}
		for i := 0; i < s.fx.sc.batch; i++ {
			t := target()
			r.targets = append(r.targets, t)
			req.Targets = append(req.Targets, s.fx.pool[t])
		}
		body = req
	case opInsert:
		n := 1
		if m.multi {
			n = s.fx.sc.insertN
		}
		for i := 0; i < n; i++ {
			r.txns = append(r.txns, s.fx.fresh[s.rng.Intn(len(s.fx.fresh))])
		}
		if m.multi {
			req := server.InsertRequest{}
			for _, t := range r.txns {
				req.Batch = append(req.Batch, t)
			}
			body = req
		} else {
			body = server.InsertRequest{Items: r.txns[0]}
		}
	case opDelete:
		r.tid = txn.TID(s.delete[s.nextDl])
		s.nextDl++
		body = server.DeleteRequest{TID: r.tid}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // the request types always marshal
	}
	r.body = b
	return r
}

// openLoop draws requests with exponential inter-arrival gaps at the
// given rate until dur: a Poisson arrival process.
func (s *stream) openLoop(rate float64, dur time.Duration) []*request {
	var out []*request
	var at time.Duration
	for {
		s.mu.Lock()
		gap := s.rng.ExpFloat64() / rate
		s.mu.Unlock()
		at += time.Duration(gap * float64(time.Second))
		if at >= dur {
			return out
		}
		r := s.next()
		r.due = at
		out = append(out, r)
	}
}

// mirror is the client-side copy of the live set: the initial dataset
// plus every insert the server acknowledged, minus every delete.
type mirror struct {
	mu      sync.Mutex
	base    *txn.Dataset
	added   map[txn.TID]txn.Transaction
	deleted map[txn.TID]bool
}

func newMirror(d *txn.Dataset) *mirror {
	return &mirror{base: d, added: map[txn.TID]txn.Transaction{}, deleted: map[txn.TID]bool{}}
}

func (m *mirror) insert(tids []txn.TID, ts []txn.Transaction) error {
	if len(tids) != len(ts) {
		return fmt.Errorf("insert of %d transactions returned %d TIDs", len(ts), len(tids))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, id := range tids {
		if int(id) < m.base.Len() || m.added[id] != nil {
			return fmt.Errorf("insert returned TID %d, which is already taken", id)
		}
		m.added[id] = ts[i]
	}
	return nil
}

func (m *mirror) remove(id txn.TID) {
	m.mu.Lock()
	m.deleted[id] = true
	m.mu.Unlock()
}

// items returns the transaction stored under a TID.
func (m *mirror) items(id txn.TID) (txn.Transaction, bool) {
	if int(id) < m.base.Len() {
		return m.base.Get(id), true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.added[id]
	return t, ok
}

// live returns the live transactions as a dataset plus the TID each
// dataset position stands for.
func (m *mirror) live() (*txn.Dataset, []txn.TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := txn.NewDataset(m.base.UniverseSize())
	var tids []txn.TID
	add := func(id txn.TID, t txn.Transaction) {
		if !m.deleted[id] {
			d.Append(t)
			tids = append(tids, id)
		}
	}
	for i := 0; i < m.base.Len(); i++ {
		add(txn.TID(i), m.base.Get(txn.TID(i)))
	}
	added := make([]txn.TID, 0, len(m.added))
	for id := range m.added {
		added = append(added, id)
	}
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	for _, id := range added {
		add(id, m.added[id])
	}
	return d, tids
}

// checkNeighbors holds one answer to its target: every neighbor must be
// a distinct known transaction whose true similarity is the value
// reported, in non-increasing order. With exact non-nil the values must
// equal the oracle's top-k value by value, which (given the first
// check) makes the set above the k-th value exactly the oracle's and
// every neighbor at the k-th value a member of its tie set. With exact
// nil and bound non-nil (an early-terminated query) each value may not
// exceed the oracle's value at its rank.
func checkNeighbors(m *mirror, target txn.Transaction, k int, got []server.Neighbor, exact, bound []topk.Candidate) error {
	seen := map[txn.TID]bool{}
	for i, nb := range got {
		if seen[nb.TID] {
			return fmt.Errorf("TID %d returned twice", nb.TID)
		}
		seen[nb.TID] = true
		if t, ok := m.items(nb.TID); !ok {
			return fmt.Errorf("TID %d was never stored", nb.TID)
		} else if !t.Equal(txn.New(nb.Items...)) {
			return fmt.Errorf("TID %d returned items %v, stored %v", nb.TID, nb.Items, t)
		}
		if v := trueValue(target, txn.New(nb.Items...)); v != nb.Value {
			return fmt.Errorf("TID %d reported value %v, true value %v", nb.TID, nb.Value, v)
		}
		if i > 0 && nb.Value > got[i-1].Value {
			return fmt.Errorf("neighbors out of order at rank %d", i)
		}
		if bound != nil && i < len(bound) && nb.Value > bound[i].Value {
			return fmt.Errorf("rank %d value %v beats the exact answer %v", i, nb.Value, bound[i].Value)
		}
	}
	if exact == nil {
		return nil
	}
	want := k
	if want > len(exact) {
		want = len(exact)
	}
	if len(got) != want {
		return fmt.Errorf("%d neighbors, oracle has %d", len(got), want)
	}
	for i := 0; i < want; i++ {
		if got[i].Value != exact[i].Value {
			return fmt.Errorf("rank %d value %v, oracle %v", i, got[i].Value, exact[i].Value)
		}
	}
	return nil
}
