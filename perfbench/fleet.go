package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyncoll"
	"dyncoll/internal/server"
)

// fleetSpec describes one in-process dyndocd fleet: a frontend over
// `backends` backends, each serving sharded collections.
type fleetSpec struct {
	backends    int
	replication int
	shards      int
	durable     bool   // DurableCollection backends (dyndocd -wal)
	dir         string // root for WAL directories and drain snapshots
	trace       *tracer
	// corrupt, when set, wraps every backend collection (the oracle
	// self-test injects a wrong answer through it).
	corrupt func(server.Coll) server.Coll
}

// collOptions are dyndocd's backend defaults (-index fm -s 16 -tau 0
// -transform worstcase) with the spec's shard count.
func (s fleetSpec) collOptions() []dyncoll.Option {
	return []dyncoll.Option{
		dyncoll.WithIndex("fm"),
		dyncoll.WithSampleRate(16),
		dyncoll.WithTau(0),
		dyncoll.WithShards(s.shards),
		dyncoll.WithTransformation(dyncoll.WorstCase),
	}
}

// walOptions are dyndocd's durability defaults (-wal-sync-window 1ms,
// -wal-checkpoint 0).
var walOptions = dyncoll.WALOptions{SyncWindow: time.Millisecond}

// node is one backend: its HTTP server and every collection it hosts.
type node struct {
	idx  int
	addr string
	dir  string
	srv  *http.Server
	h    *detachable   // what srv serves
	done chan struct{} // closed when Serve returned

	mu       sync.Mutex
	plain    map[int]*dyncoll.Collection        // by range, -1 = default
	durables map[int]*dyncoll.DurableCollection // by range, -1 = default
}

// fleet is a running frontend plus its backends, all on loopback.
type fleet struct {
	nodes []*node
	feSrv *http.Server
	feEnd chan struct{}
	url   string
}

// startFleet brings a fleet up. Backends start empty (or, when durable,
// recover whatever their directories hold).
func startFleet(spec fleetSpec) (*fleet, error) {
	f := &fleet{}
	addrs := make([]string, spec.backends)
	for i := 0; i < spec.backends; i++ {
		n := &node{idx: i, dir: filepath.Join(spec.dir, fmt.Sprintf("backend-%d", i))}
		if err := n.open(spec, ""); err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		addrs[i] = n.addr
	}
	// dyndocd's frontend flag defaults.
	fe, err := server.NewFrontendConfig(server.FrontendConfig{
		Backends:    addrs,
		Replication: spec.replication,
		OpTimeout:   5 * time.Second,
		Retry:       server.RetryPolicy{Attempts: 3, Base: 50 * time.Millisecond},
		Breaker:     server.BreakerConfig{Failures: 3, Cooldown: 2 * time.Second},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	h := fe.Handler()
	if spec.trace != nil {
		h = spec.trace.handler("server.frontend", -1, h)
	}
	addr, srv, done, err := serve("127.0.0.1:0", h)
	if err != nil {
		f.close()
		return nil, err
	}
	f.feSrv, f.feEnd, f.url = srv, done, "http://"+addr
	return f, nil
}

// serve listens on addr and serves h until the server is closed.
func serve(addr string, h http.Handler) (string, *http.Server, chan struct{}, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return ln.Addr().String(), srv, done, nil
}

// open builds the backend exactly as cmd/dyndocd does (plain sharded
// collections with range hosting, or durable ones recovered from the
// node's directory, each range in DIR/range-<N>), optionally restoring
// drain snapshots from snapDir, and starts serving on the node's
// address (a fresh port on first open, the same one on reopen).
func (n *node) open(spec fleetSpec, snapDir string) error {
	opts := spec.collOptions()
	n.plain = make(map[int]*dyncoll.Collection)
	n.durables = make(map[int]*dyncoll.DurableCollection)
	var b *server.Backend
	if spec.durable {
		dc, err := dyncoll.OpenDurableCollection(n.dir, walOptions, opts...)
		if err != nil {
			return fmt.Errorf("open durable %s: %w", n.dir, err)
		}
		n.durables[-1] = dc
		b = server.NewBackend(n.wrap(spec, dc)).EnableRanges(func(rng int) (server.Coll, error) {
			rc, err := dyncoll.OpenDurableCollection(filepath.Join(n.dir, fmt.Sprintf("range-%d", rng)), walOptions, opts...)
			if err != nil {
				return nil, err
			}
			n.mu.Lock()
			n.durables[rng] = rc
			n.mu.Unlock()
			return n.wrap(spec, rc), nil
		})
		entries, _ := os.ReadDir(n.dir)
		for _, e := range entries {
			rng, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "range-"))
			if !e.IsDir() || !strings.HasPrefix(e.Name(), "range-") || err != nil {
				continue
			}
			rc, err := dyncoll.OpenDurableCollection(filepath.Join(n.dir, e.Name()), walOptions, opts...)
			if err != nil {
				return fmt.Errorf("open durable range %d: %w", rng, err)
			}
			n.durables[rng] = rc
			b.SetRange(rng, n.wrap(spec, rc))
		}
	} else {
		c, err := dyncoll.NewCollection(opts...)
		if err != nil {
			return err
		}
		if snapDir != "" {
			if err := c.LoadFile(n.snapPath(snapDir, -1)); err != nil {
				return fmt.Errorf("restore: %w", err)
			}
		}
		n.plain[-1] = c
		b = server.NewBackend(n.wrap(spec, server.PlainColl{Collection: c})).EnableRanges(func(rng int) (server.Coll, error) {
			rc, err := dyncoll.NewCollection(opts...)
			if err != nil {
				return nil, err
			}
			n.mu.Lock()
			n.plain[rng] = rc
			n.mu.Unlock()
			return n.wrap(spec, server.PlainColl{Collection: rc}), nil
		})
		if snapDir != "" {
			matches, _ := filepath.Glob(n.snapPath(snapDir, -1) + ".range*")
			for _, m := range matches {
				rng, err := strconv.Atoi(m[strings.LastIndex(m, ".range")+len(".range"):])
				if err != nil {
					continue
				}
				rc, err := dyncoll.NewCollection(opts...)
				if err != nil {
					return err
				}
				if err := rc.LoadFile(m); err != nil {
					return fmt.Errorf("restore %s: %w", m, err)
				}
				n.plain[rng] = rc
				b.SetRange(rng, n.wrap(spec, server.PlainColl{Collection: rc}))
			}
		}
	}
	var h http.Handler = b.Handler()
	if spec.trace != nil {
		h = spec.trace.handler("server.backend", n.idx, h)
	}
	listen := n.addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	n.h = &detachable{}
	n.h.h.Store(&h)
	addr, srv, done, err := serve(listen, n.h)
	if err != nil {
		return err
	}
	n.addr, n.srv, n.done = addr, srv, done
	return nil
}

// detachable serves its handler until it is detached, then answers 503.
// A stopped backend detaches its handler, so an HTTP connection
// goroutine still on its way out cannot keep the drained collections
// reachable while the harness measures the heap the drain released.
type detachable struct{ h atomic.Pointer[http.Handler] }

func (d *detachable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := d.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "backend stopped", http.StatusServiceUnavailable)
}

// wrap applies the optional fault injector and the timing decorator.
func (n *node) wrap(spec fleetSpec, c server.Coll) server.Coll {
	if spec.corrupt != nil {
		c = spec.corrupt(c)
	}
	if spec.trace != nil {
		writes := "dyncoll"
		if spec.durable {
			writes = "wal"
		}
		c = &tracedColl{Coll: c, tr: spec.trace, node: n.idx, writeLayer: writes}
	}
	return c
}

func (n *node) snapPath(dir string, rng int) string {
	p := filepath.Join(dir, fmt.Sprintf("backend-%d.snap", n.idx))
	if rng >= 0 {
		p += fmt.Sprintf(".range%d", rng)
	}
	return p
}

// colls lists every hosted collection as the engine sees it.
func (n *node) colls() []engineColl {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []engineColl
	for _, c := range n.plain {
		out = append(out, c)
	}
	for _, c := range n.durables {
		out = append(out, c)
	}
	return out
}

// stop shuts the HTTP server down and waits for it. Collections stay
// open.
func (n *node) stop() {
	if n.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if n.srv.Shutdown(ctx) != nil {
		n.srv.Close()
	}
	<-n.done
	n.h.h.Store(nil)
	n.srv = nil
}

// drain is dyndocd's graceful drain: stop serving, let background
// rebuilds land, then write the drain snapshot (plain backends, when
// snapDir is set) or checkpoint and close the WAL (durable backends;
// a teardown skips the checkpoint). The node then holds no collection
// until it is opened again.
func (n *node) drain(snapDir string, checkpoint bool) error {
	n.stop()
	n.mu.Lock()
	defer n.mu.Unlock()
	var errs []error
	for rng, c := range n.plain {
		c.WaitIdle()
		if snapDir != "" {
			errs = append(errs, c.SaveFile(n.snapPath(snapDir, rng)))
		}
	}
	for _, d := range n.durables {
		d.WaitIdle()
		if checkpoint {
			errs = append(errs, d.Checkpoint())
		}
		errs = append(errs, d.Close())
	}
	n.plain, n.durables = nil, nil
	return errors.Join(errs...)
}

// engineColl is the engine-facing surface the harness samples.
type engineColl interface {
	Stats() dyncoll.IndexStats
	SizeBits() int64
	Len() int
	WaitIdle()
}

// waitIdle blocks until no background rebuild is in flight anywhere.
func (f *fleet) waitIdle() {
	for _, n := range f.nodes {
		for _, c := range n.colls() {
			c.WaitIdle()
		}
	}
}

// engineColls lists every collection of every backend.
func (f *fleet) engineColls() []engineColl {
	var out []engineColl
	for _, n := range f.nodes {
		out = append(out, n.colls()...)
	}
	return out
}

// durables lists every durable collection of every backend.
func (f *fleet) durables() []*dyncoll.DurableCollection {
	var out []*dyncoll.DurableCollection
	for _, n := range f.nodes {
		n.mu.Lock()
		for _, d := range n.durables {
			out = append(out, d)
		}
		n.mu.Unlock()
	}
	return out
}

// close stops every server and releases every collection.
func (f *fleet) close() {
	if f.feSrv != nil {
		f.feSrv.Close()
		<-f.feEnd
		f.feSrv = nil
	}
	for _, n := range f.nodes {
		n.drain("", false)
	}
}
