package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/wal"
)

// Item is the entry the op workloads store. Key is the indexed field,
// drawn from the key space; ID is unique per written entry; Payload is
// derived from ID, so every entry a lookup returns can be checked.
type Item struct {
	Key     string `space:"index"`
	ID      int64
	Payload []byte
}

func init() { transport.RegisterType(Item{}) }

// opsConfig sizes the space-ops and durable-ops workloads.
type opsConfig struct {
	durable bool
	preload int // resident entries written in set-up
	keys    int // distinct index keys
	payload int // bytes per entry
	jobOps  int // ops per client that make one "job" for job_s
}

// payloadFor fills n bytes determined by id (a splitmix64 stream).
func payloadFor(id int64, n int) []byte {
	b := make([]byte, n)
	x := uint64(id)
	for i := 0; i < n; i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8 && i+j < n; j++ {
			b[i+j] = byte(z >> (8 * j))
		}
	}
	return b
}

func keyName(k int) string { return fmt.Sprintf("k%04d", k+1) }

// byteCounter counts the bytes the WAL writes to its segments.
type byteCounter struct {
	w io.Writer
	n *atomic.Int64
}

func (c byteCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// opsDeploy is one space.Service on a TCP listener with its clients.
type opsDeploy struct {
	cfg     opsConfig
	local   *space.Local
	dur     *space.Durable
	dir     string
	svc     *space.Service
	ln      *transport.TCPListener
	clients []space.Space
	actors  []*actor
	srvTap  *serverTap // nil when untraced

	appendHist, syncHist *metrics.Histogram
	walBytes             atomic.Int64
	setup                time.Duration
}

// setupOps builds the deployment: the space (durable in a fresh directory
// under workDir), its service with admission armed as cmd/master arms it,
// the TCP listener, the preload, and one TCP proxy per client.
func setupOps(cfg opsConfig, seed int64, workDir string, traced bool, clk epoch) (*opsDeploy, error) {
	t0 := time.Now()
	real := vclock.NewReal()
	d := &opsDeploy{cfg: cfg}
	if cfg.durable {
		dir, err := os.MkdirTemp(workDir, "wal-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
		d.appendHist, d.syncHist = metrics.NewHistogram(), metrics.NewHistogram()
		d.local, d.dur, err = space.NewLocalDurable(real, space.DurableOptions{
			Dir:        filepath.Join(dir, "shard0"),
			Fsync:      wal.FsyncAlways,
			WrapWriter: func(w io.Writer) io.Writer { return byteCounter{w, &d.walBytes} },
			AppendHist: d.appendHist,
			SyncHist:   d.syncHist,
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	} else {
		d.local = space.NewLocal(real)
	}
	srv := transport.NewServer()
	d.svc = space.NewService(d.local, srv)
	d.svc.Admission().Configure(space.AdmissionConfig{Clock: real, MaxInflight: 0})
	if traced {
		d.srvTap = newServerTap(clk)
		srv.WrapPrefix("space.", d.srvTap.middleware)
	}
	ln, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		d.close()
		return nil, err
	}
	d.ln = ln

	rng := rand.New(rand.NewSource(seed))
	for i := 1; i <= cfg.preload; i++ {
		e := Item{Key: keyName(rng.Intn(cfg.keys)), ID: int64(i), Payload: payloadFor(int64(i), cfg.payload)}
		if _, err := d.local.Write(e, nil, tuplespace.Forever); err != nil {
			d.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	for c := 0; c < clients; c++ {
		tc, err := transport.DialTCP(ln.Addr())
		if err != nil {
			d.close()
			return nil, err
		}
		a := newActor(fmt.Sprintf("client%d", c), clk)
		if traced {
			tc = &rpcTap{inner: tc, a: a, depth: 1}
		}
		d.actors = append(d.actors, a)
		d.clients = append(d.clients, &spaceTap{inner: space.NewProxy(tc), a: a, layer: layerSpace})
	}
	// Warm each connection with one op of every kind, leaving the space as
	// it was: the first call on a connection also ships gob type info.
	for c, sp := range d.clients {
		w := Item{Key: "warm", ID: -int64(c + 1)}
		if _, err := sp.Write(w, nil, tuplespace.Forever); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if _, err := sp.ReadIfExists(Item{Key: "warm"}, nil); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if _, err := sp.TakeIfExists(w, nil); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	d.setup = time.Since(t0)
	return d, nil
}

// close tears the deployment down and removes its data directory.
func (d *opsDeploy) close() {
	d.shutdown()
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// shutdown stops clients, listener and space, keeping the data directory.
func (d *opsDeploy) shutdown() {
	for _, c := range d.clients {
		c.Close()
	}
	d.clients = nil
	if d.ln != nil {
		d.ln.Close()
		d.ln = nil
	}
	if d.local != nil {
		d.local.Close()
		d.local = nil
	}
	if d.dur != nil {
		d.dur.Close()
		d.dur = nil
	}
}

// clientTally is one client's accounting of what it did.
type clientTally struct {
	writes, takes, reads, misses, failed int
	writtenBytes                         int64
	live                                 map[int64]int // +1 per write, -1 per take
	bad                                  []string      // wrong entries returned
}

// opsRun is what one timed window of the op loop produced.
type opsRun struct {
	tallies  []clientTally
	from, to int64 // window in clock time
	elapsed  time.Duration
}

func (r opsRun) total() (t clientTally) {
	for _, c := range r.tallies {
		t.writes += c.writes
		t.takes += c.takes
		t.reads += c.reads
		t.misses += c.misses
		t.failed += c.failed
		t.writtenBytes += c.writtenBytes
		t.bad = append(t.bad, c.bad...)
	}
	return t
}

// runOps drives the closed loop: every client issues its seeded op
// sequence, one op outstanding at a time, until the window closes.
func runOps(d *opsDeploy, seed int64, window time.Duration, clk epoch) opsRun {
	run := opsRun{tallies: make([]clientTally, len(d.clients))}
	run.from = clk.now()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range d.clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			run.tallies[c] = clientLoop(d.clients[c], c, d.cfg, seed, start.Add(window))
		}()
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	run.to = clk.now()
	return run
}

// Op kinds of the seeded mix.
const (
	opWrite = iota
	opTake
	opRead
)

// opGen is one client's seeded op sequence: 40% Write, 40% TakeIfExists,
// 20% ReadIfExists, keys uniform over the key space.
type opGen struct {
	rng  *rand.Rand
	keys int
}

func newOpGen(seed int64, client, keys int) *opGen {
	return &opGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1)), keys: keys}
}

func (g *opGen) next() (kind int, key string) {
	r := g.rng.Intn(10)
	key = keyName(g.rng.Intn(g.keys))
	switch {
	case r < 4:
		return opWrite, key
	case r < 8:
		return opTake, key
	}
	return opRead, key
}

func clientLoop(sp space.Space, c int, cfg opsConfig, seed int64, deadline time.Time) clientTally {
	t := clientTally{live: make(map[int64]int)}
	gen := newOpGen(seed, c, cfg.keys)
	var seq int64
	check := func(tmpl Item, e tuplespace.Entry) (int64, bool) {
		it, ok := e.(Item)
		if !ok {
			t.bad = append(t.bad, fmt.Sprintf("client %d: got %T for key %s", c, e, tmpl.Key))
			return 0, false
		}
		if it.Key != tmpl.Key || !bytes.Equal(it.Payload, payloadFor(it.ID, cfg.payload)) {
			t.bad = append(t.bad, fmt.Sprintf("client %d: entry %d (key %s) returned for key %s", c, it.ID, it.Key, tmpl.Key))
			return 0, false
		}
		return it.ID, true
	}
	for time.Now().Before(deadline) {
		kind, key := gen.next()
		tmpl := Item{Key: key}
		switch kind {
		case opWrite:
			seq++
			id := int64(c+1)<<40 | seq
			e := tmpl
			e.ID, e.Payload = id, payloadFor(id, cfg.payload)
			if _, err := sp.Write(e, nil, tuplespace.Forever); err != nil {
				t.failed++
				continue
			}
			t.writes++
			t.writtenBytes += int64(cfg.payload)
			t.live[id]++
		case opTake:
			e, err := sp.TakeIfExists(tmpl, nil)
			if err != nil {
				t.count(err)
				continue
			}
			t.takes++
			if id, ok := check(tmpl, e); ok {
				t.live[id]--
			}
		default:
			e, err := sp.ReadIfExists(tmpl, nil)
			if err != nil {
				t.count(err)
				continue
			}
			t.reads++
			check(tmpl, e)
		}
	}
	return t
}

func (t clientTally) attempted() int { return t.writes + t.takes + t.reads + t.misses + t.failed }

func (t *clientTally) count(err error) {
	if outcomeOf(err) == outMiss {
		t.misses++
	} else {
		t.failed++
	}
}

// expectedLive merges the preload and every client's writes and takes
// into the set of IDs that must be live, checking that no entry was taken
// more often than it was written.
func expectedLive(preload int, run opsRun) (map[int64]bool, []string) {
	net := make(map[int64]int, preload)
	for i := 1; i <= preload; i++ {
		net[int64(i)] = 1
	}
	for _, t := range run.tallies {
		for id, n := range t.live {
			net[id] += n
		}
	}
	var bad []string
	live := make(map[int64]bool, len(net))
	for id, n := range net {
		switch n {
		case 0:
		case 1:
			live[id] = true
		default:
			if len(bad) < 5 {
				bad = append(bad, fmt.Sprintf("entry %d written-minus-taken count %d", id, n))
			}
		}
	}
	return live, bad
}

// checkLive compares the IDs a space holds with the expected live set.
func checkLive(what string, got []tuplespace.Entry, want map[int64]bool) []string {
	var bad []string
	seen := make(map[int64]bool, len(got))
	for _, e := range got {
		it, ok := e.(Item)
		if !ok || !want[it.ID] || seen[it.ID] {
			if len(bad) < 5 {
				bad = append(bad, fmt.Sprintf("%s: unexpected entry %+v", what, e))
			}
			continue
		}
		seen[it.ID] = true
	}
	if len(seen) != len(want) {
		bad = append(bad, fmt.Sprintf("%s: %d of %d expected entries present", what, len(seen), len(want)))
	}
	return bad
}

// checkOps runs the op workloads' correctness checks: every returned entry
// matched its template, the live count equals preload + writes − takes,
// and the space (or, for durable-ops, the space recovered from its
// directory) holds exactly the expected live set. It returns the recovery
// time of the durable reopen, or 0.
func checkOps(d *opsDeploy, run opsRun, res *result) time.Duration {
	tot := run.total()
	for _, b := range tot.bad {
		res.fail("%s", b)
	}
	want := d.cfg.preload + tot.writes - tot.takes
	if live := d.local.TS.Stats().EntriesLive; live != want {
		res.fail("live entries %d, want preload %d + writes %d - takes %d = %d",
			live, d.cfg.preload, tot.writes, tot.takes, want)
	}
	expect, bad := expectedLive(d.cfg.preload, run)
	for _, b := range bad {
		res.fail("%s", b)
	}
	if len(expect) != want {
		res.fail("accounting: %d IDs written-not-taken, want %d", len(expect), want)
	}
	all, err := d.local.TS.ReadAll(Item{}, nil, 0)
	if err != nil {
		res.fail("read live set: %v", err)
	}
	for _, b := range checkLive("space", all, expect) {
		res.fail("%s", b)
	}
	if !d.cfg.durable {
		return 0
	}
	// Durability: close the space and its log, reopen the directory and
	// require exactly the live set back.
	d.shutdown()
	t0 := time.Now()
	l, dur, err := space.NewLocalDurable(vclock.NewReal(), space.DurableOptions{
		Dir: filepath.Join(d.dir, "shard0"), Fsync: wal.FsyncAlways,
	})
	recovery := time.Since(t0)
	if err != nil {
		res.fail("reopen durable space: %v", err)
		return recovery
	}
	defer dur.Close()
	defer l.Close()
	got, err := l.TS.ReadAll(Item{}, nil, 0)
	if err != nil {
		res.fail("read recovered set: %v", err)
	}
	for _, b := range checkLive("recovered", got, expect) {
		res.fail("%s", b)
	}
	return recovery
}
