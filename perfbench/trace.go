package main

import (
	"errors"
	"sort"
	"sync"
	"time"

	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
)

// Layer names recorded on spans. They are the repository's module names.
const (
	layerSpace     = "space"      // a space.Proxy op as its caller sees it
	layerRouter    = "shard"      // a shard.Router op as its caller sees it
	layerLocal     = "tuplespace" // a shard-local space.Local op
	layerTransport = "transport"  // one transport.Client.Call
)

// Outcomes of a recorded call.
const (
	outOK   = iota // returned normally (an entry, for lookups)
	outMiss        // ErrNoMatch / ErrTimeout: served, nothing matched
	outFail        // any other error
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the clock's epoch.
type span struct {
	layer, method string
	op            uint64 // root op the span belongs to
	parent        int32  // index of the enclosing span, -1 for a root
	depth         int8
	outcome       int8
	start, end    int64
	// Set on root Commit spans: when the task's BeginTxn started, so the
	// begin→commit task time can be read off the commit span.
	txnStart int64
}

func (s span) dur() int64 { return s.end - s.start }

// epoch anchors span times; monotonic through time.Since.
type epoch struct{ t0 time.Time }

func (e epoch) now() int64 { return int64(time.Since(e.t0)) }

// actor is one caller that issues at most one root op at a time: a
// closed-loop client, a worker, or the master. Its spans form per-op trees:
// a root span at depth 0 and the calls the op made into lower layers.
// Lower-layer calls made from other goroutines on the actor's behalf (the
// router's scatter children) attach to whichever root op was current when
// they started. Spans are stored in fixed-size blocks, so recording never
// copies what is already stored.
type actor struct {
	name string
	clk  epoch

	mu     sync.Mutex
	blocks [][]span
	n      int32
	ops    uint64
	open   [4]int32 // most recently opened span at each depth
}

const spanBlock = 4096

func newActor(name string, clk epoch) *actor {
	return &actor{name: name, clk: clk, open: [4]int32{-1, -1, -1, -1}}
}

// at returns span i; the caller holds a.mu.
func (a *actor) at(i int32) *span { return &a.blocks[i/spanBlock][i%spanBlock] }

func (a *actor) begin(depth int8, layer, method string) int32 {
	now := a.clk.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	s := span{layer: layer, method: method, depth: depth, start: now, parent: -1}
	if depth == 0 {
		a.ops++
	} else {
		s.parent = a.open[depth-1]
	}
	s.op = a.ops
	i := a.n
	if i%spanBlock == 0 {
		a.blocks = append(a.blocks, make([]span, 0, spanBlock))
	}
	b := &a.blocks[len(a.blocks)-1]
	*b = append(*b, s)
	a.n++
	a.open[depth] = i
	return i
}

func (a *actor) end(i int32, err error) {
	now := a.clk.now()
	a.mu.Lock()
	s := a.at(i)
	s.end = now
	s.outcome = outcomeOf(err)
	a.mu.Unlock()
}

// snapshot copies the actor's spans for analysis.
func (a *actor) snapshot() []span {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]span, 0, a.n)
	for _, b := range a.blocks {
		out = append(out, b...)
	}
	return out
}

func outcomeOf(err error) int8 {
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, tuplespace.ErrNoMatch), errors.Is(err, tuplespace.ErrTimeout):
		return outMiss
	}
	return outFail
}

// spaceTap decorates a space.Space, recording one span per call. It wraps
// the transactions it hands out and unwraps them again on the way down, so
// the space underneath only ever sees its own handles.
type spaceTap struct {
	inner space.Space
	a     *actor
	depth int8
	layer string
}

var _ space.Space = (*spaceTap)(nil)

type tapTxn struct {
	inner space.Txn
	tap   *spaceTap
	begun int64
}

func (t *tapTxn) Commit() error { return t.finish("Commit", t.inner.Commit) }
func (t *tapTxn) Abort() error  { return t.finish("Abort", t.inner.Abort) }

func (t *tapTxn) finish(method string, f func() error) error {
	i := t.tap.a.begin(t.tap.depth, t.tap.layer, method)
	err := f()
	t.tap.a.end(i, err)
	if t.tap.depth == 0 {
		t.tap.a.mu.Lock()
		t.tap.a.at(i).txnStart = t.begun
		t.tap.a.mu.Unlock()
	}
	return err
}

func (s *spaceTap) unwrap(t space.Txn) space.Txn {
	if tt, ok := t.(*tapTxn); ok && tt.tap == s {
		return tt.inner
	}
	return t
}

func (s *spaceTap) Write(e tuplespace.Entry, t space.Txn, ttl time.Duration) (space.Lease, error) {
	i := s.a.begin(s.depth, s.layer, "Write")
	l, err := s.inner.Write(e, s.unwrap(t), ttl)
	s.a.end(i, err)
	return l, err
}

func (s *spaceTap) lookup(method string, f func(space.Txn) (tuplespace.Entry, error), t space.Txn) (tuplespace.Entry, error) {
	i := s.a.begin(s.depth, s.layer, method)
	e, err := f(s.unwrap(t))
	s.a.end(i, err)
	return e, err
}

func (s *spaceTap) Read(tmpl tuplespace.Entry, t space.Txn, timeout time.Duration) (tuplespace.Entry, error) {
	return s.lookup("Read", func(tx space.Txn) (tuplespace.Entry, error) { return s.inner.Read(tmpl, tx, timeout) }, t)
}

func (s *spaceTap) Take(tmpl tuplespace.Entry, t space.Txn, timeout time.Duration) (tuplespace.Entry, error) {
	return s.lookup("Take", func(tx space.Txn) (tuplespace.Entry, error) { return s.inner.Take(tmpl, tx, timeout) }, t)
}

func (s *spaceTap) ReadIfExists(tmpl tuplespace.Entry, t space.Txn) (tuplespace.Entry, error) {
	return s.lookup("ReadIfExists", func(tx space.Txn) (tuplespace.Entry, error) { return s.inner.ReadIfExists(tmpl, tx) }, t)
}

func (s *spaceTap) TakeIfExists(tmpl tuplespace.Entry, t space.Txn) (tuplespace.Entry, error) {
	return s.lookup("TakeIfExists", func(tx space.Txn) (tuplespace.Entry, error) { return s.inner.TakeIfExists(tmpl, tx) }, t)
}

func (s *spaceTap) ReadAll(tmpl tuplespace.Entry, t space.Txn, max int) ([]tuplespace.Entry, error) {
	i := s.a.begin(s.depth, s.layer, "ReadAll")
	es, err := s.inner.ReadAll(tmpl, s.unwrap(t), max)
	s.a.end(i, err)
	return es, err
}

func (s *spaceTap) TakeAll(tmpl tuplespace.Entry, t space.Txn, max int) ([]tuplespace.Entry, error) {
	i := s.a.begin(s.depth, s.layer, "TakeAll")
	es, err := s.inner.TakeAll(tmpl, s.unwrap(t), max)
	s.a.end(i, err)
	return es, err
}

func (s *spaceTap) Count(tmpl tuplespace.Entry) (int, error) {
	i := s.a.begin(s.depth, s.layer, "Count")
	n, err := s.inner.Count(tmpl)
	s.a.end(i, err)
	return n, err
}

func (s *spaceTap) BeginTxn(ttl time.Duration) (space.Txn, error) {
	i := s.a.begin(s.depth, s.layer, "BeginTxn")
	tx, err := s.inner.BeginTxn(ttl)
	s.a.end(i, err)
	if err != nil {
		return nil, err
	}
	s.a.mu.Lock()
	begun := s.a.at(i).start
	s.a.mu.Unlock()
	return &tapTxn{inner: tx, tap: s, begun: begun}, nil
}

func (s *spaceTap) Close() error { return s.inner.Close() }

// NumShards forwards the router's shard count, which the master reads
// into RunMetrics.Shards.
func (s *spaceTap) NumShards() int {
	if ns, ok := s.inner.(interface{ NumShards() int }); ok {
		return ns.NumShards()
	}
	return 1
}

// rpcTap decorates a transport.Client, recording one span per Call.
type rpcTap struct {
	inner transport.Client
	a     *actor
	depth int8
}

func (c *rpcTap) Call(method string, arg interface{}) (interface{}, error) {
	i := c.a.begin(c.depth, layerTransport, method)
	res, err := c.inner.Call(method, arg)
	c.a.end(i, transportErr(err))
	return res, err
}

func (c *rpcTap) Close() error { return c.inner.Close() }

// transportErr keeps only failures of the transport itself: a
// RemoteError is a reply the server sent (a miss included).
func transportErr(err error) error {
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return nil
	}
	return err
}

// serverTap times every handler of a transport.Server, installed as the
// outermost middleware. Server time cannot carry the client's op id
// without changing the program, so it is kept per method, in aggregate.
type serverTap struct {
	clk epoch

	mu  sync.Mutex
	per map[string][]int64
}

func newServerTap(clk epoch) *serverTap {
	return &serverTap{clk: clk, per: make(map[string][]int64)}
}

func (st *serverTap) middleware(method string, next transport.Handler) transport.Handler {
	return func(arg interface{}) (interface{}, error) {
		t0 := st.clk.now()
		res, err := next(arg)
		d := st.clk.now() - t0
		st.mu.Lock()
		st.per[method] = append(st.per[method], d)
		st.mu.Unlock()
		return res, err
	}
}

// reset drops what was recorded so far (set-up and warm-up calls).
func (st *serverTap) reset() {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.per = make(map[string][]int64)
	st.mu.Unlock()
}

func (st *serverTap) durations() map[string][]int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string][]int64, len(st.per))
	for m, ds := range st.per {
		out[m] = append([]int64(nil), ds...)
	}
	return out
}

// treeCheck is the self-time accounting over every finished root op.
type treeCheck struct {
	ops       int
	rootNs    int64 // total root duration
	shortfall int64 // root time no layer's self time accounts for
	overlap   int64 // self time counted twice by concurrent children
}

// selfTimes computes each span's self time — its duration minus the part
// of it that its children cover, with children clipped to their parent —
// for the spans of one actor, and checks per root op that the layers'
// self times add up to the root's duration. Only roots that start at or
// after from and end by to are counted; self[i] is -1 for the others.
func selfTimes(spans []span, from, to int64, chk *treeCheck) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i := range self {
		self[i] = -1
	}
	var walk func(i int32, lo, hi int64) int64
	walk = func(i int32, lo, hi int64) int64 {
		s := spans[i]
		a, b := s.start, s.end
		if b == 0 || b > hi {
			b = hi // still open when the run stopped, or outlived its parent
		}
		if a < lo {
			a = lo
		}
		if b <= a {
			self[i] = 0
			return 0
		}
		var iv [][2]int64
		var sum int64
		for _, c := range children[i] {
			cs, ce := spans[c].start, spans[c].end
			if ce == 0 || ce > b {
				ce = b
			}
			if cs < a {
				cs = a
			}
			if ce > cs {
				iv = append(iv, [2]int64{cs, ce})
			}
			sum += walk(c, a, b)
		}
		self[i] = (b - a) - unionLen(iv)
		return sum + self[i]
	}
	for i, s := range spans {
		if s.depth != 0 || s.end == 0 || s.start < from || s.end > to {
			continue
		}
		total := walk(int32(i), s.start, s.end)
		d := s.dur()
		chk.ops++
		chk.rootNs += d
		if total < d {
			chk.shortfall += d - total
		} else {
			chk.overlap += total - d
		}
	}
	return self
}

func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			n += ce - cs
			cs, ce = x[0], x[1]
		} else if x[1] > ce {
			ce = x[1]
		}
	}
	return n + ce - cs
}
