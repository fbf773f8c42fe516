package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// prepared is one request kind, ready to send: its hot body is encoded
// once, its reference result looked up once.
type prepared struct {
	call call
	req  serve.Request
	body []byte // the hot request
	ref  reference
}

func (b *bench) prepare(c call) (*prepared, error) {
	req := serve.Request{Source: c.source, Fn: c.fn, Args: c.jsonArgs(), Seed: b.env.RandSeed}
	if c.auto {
		req.Auto, req.PEs = true, b.env.PEs
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("set-up: encode %s: %w", c.key(), err)
	}
	return &prepared{call: c, req: req, body: body, ref: b.refs[c.key()]}, nil
}

// variant encodes p's request with changes: a never-seen source (the
// program plus a unique comment line, so it misses the cache but
// computes the same answer) and/or "profile": true.
func (p *prepared) variant(coldTag string, profile bool) []byte {
	if coldTag == "" && !profile {
		return p.body
	}
	req := p.req
	if coldTag != "" {
		req.Source += "\n// cold " + coldTag + "\n"
	}
	req.Profile = profile
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a Request of strings and numbers always encodes
	}
	return body
}

// loadStats is what one goroutine of a load phase saw; phases merge
// them afterwards, so the hot path shares nothing but the work index.
type loadStats struct {
	lat      samples // seconds, all requests
	missLat  samples // seconds, forced misses only
	late     samples // seconds the generator sent after the due time
	wrong    []error
	requests int
	spans    map[string]*samples // server span durations, µs (traced pass)
}

// merge adds what another goroutine, or another round, saw.
func (st *loadStats) merge(o loadStats) {
	st.lat = append(st.lat, o.lat...)
	st.missLat = append(st.missLat, o.missLat...)
	st.late = append(st.late, o.late...)
	st.wrong = append(st.wrong, o.wrong...)
	st.requests += o.requests
	for name, s := range o.spans {
		if st.spans == nil {
			st.spans = map[string]*samples{}
		}
		if st.spans[name] == nil {
			st.spans[name] = &samples{}
		}
		*st.spans[name] = append(*st.spans[name], *s...)
	}
}

// post posts one body and checks the reply against p's reference.
// It returns the server's trace when the request asked for one.
func (b *bench) post(url string, body []byte, p *prepared) (*obs.TraceView, error) {
	resp, err := b.client.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", p.call.key(), resp.StatusCode, bytes.TrimSpace(data))
	}
	var r serve.Response
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: reply does not parse: %w", p.call.key(), err)
	}
	if !r.OK {
		return nil, fmt.Errorf("%s: not ok: %s", p.call.key(), r.Error)
	}
	if r.Result != p.ref.Result || r.Output != p.ref.Output {
		return nil, fmt.Errorf("%s: got %q / %q, reference %q / %q", p.call.key(), r.Result, r.Output, p.ref.Result, p.ref.Output)
	}
	return r.Trace, nil
}

// request is post plus the bench's own bookkeeping, for the sequential
// callers (set-up warm-up, the miss phase, the layer probes).
func (b *bench) request(rec *recorder, url string, p *prepared, body []byte, root int) time.Duration {
	t0 := time.Now()
	tv, err := b.post(url, body, p)
	d := time.Since(t0)
	b.attempted++
	if err != nil {
		b.fail(err)
	}
	recordServerSpans(rec, root, tv, nil)
	return d
}

// recordServerSpans files a profiled reply's span tree under the
// client-side span of the same request, and its top-level durations
// into sink.
func recordServerSpans(rec *recorder, parent int, tv *obs.TraceView, sink map[string]*samples) {
	if tv == nil {
		return
	}
	var walk func(parent int, prefix string, spans []obs.SpanView)
	walk = func(parent int, prefix string, spans []obs.SpanView) {
		for _, s := range spans {
			name := prefix + s.Name
			id := 0
			if rec != nil && parent > 0 {
				id = rec.child(parent, name, float64(s.StartUS), float64(s.DurUS))
			}
			walk(id, name+".", s.Children)
		}
	}
	walk(parent, "serve.span.", tv.Spans)
	for _, s := range tv.Spans {
		if sink != nil {
			if sink[s.Name] == nil {
				sink[s.Name] = &samples{}
			}
			sink[s.Name].add(float64(s.DurUS))
		}
	}
}

// plan draws the request sequence of a load phase up front: which kind
// each request is and whether it is a forced miss. The draw depends on
// the seed alone.
type planned struct {
	kind int
	cold bool
}

func (b *bench) drawRequests(r *rng, n int) []planned {
	out := make([]planned, n)
	for i := range out {
		out[i].kind = b.draw[r.intn(len(b.draw))]
		out[i].cold = b.w.coldPct > 0 && r.intn(100) < b.w.coldPct
	}
	return out
}

// coldTag names the next never-seen source.
func (b *bench) coldTag(n int64) string { return fmt.Sprintf("%d-%d", b.env.Seed, n) }

// openLoop sends requests on a fixed schedule whatever the server
// does, over at most P connections, and times each from the moment it
// was due: a stall delays every request behind it, and that wait
// counts.
func (b *bench) openLoop(rec *recorder, r *rng, deadline time.Time) loadStats {
	start := time.Now().Add(2 * time.Millisecond)
	n := int(b.w.rate * deadline.Sub(start).Seconds())
	if n < 1 {
		n = 1
	}
	seq := b.drawRequests(r, n)
	interval := time.Duration(float64(time.Second) / b.w.rate)
	var next atomic.Int64
	return b.fanOut(func(st *loadStats) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			// The generator is late by what it adds after the later of
			// "due" and "a connection came free": encoding the body and
			// oversleeping. Waiting for a free connection is the
			// client's queue, and is part of the latency, not of this.
			free := time.Now()
			body := b.bodyFor(seq[i], rec != nil)
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			if free.Before(due) {
				free = due
			}
			st.late.add(time.Since(free).Seconds())
			b.fire(rec, st, seq[i], body, due)
		}
	})
}

// closedLoop keeps P clients busy, each sending its next request when
// the previous reply is in.
func (b *bench) closedLoop(rec *recorder, r *rng, deadline time.Time) (loadStats, time.Duration) {
	// Each client draws its own sequence; 4096 entries outlast any
	// phase only by wrapping, which is fine for a repeating mix.
	seqs := make([][]planned, b.env.PEs)
	for i := range seqs {
		seqs[i] = b.drawRequests(r, 4096)
	}
	start := time.Now()
	var client atomic.Int64
	st := b.fanOut(func(st *loadStats) {
		seq := seqs[int(client.Add(1))-1]
		for i := 0; i == 0 || time.Now().Before(deadline); i++ {
			pl := seq[i%len(seq)]
			b.fire(rec, st, pl, b.bodyFor(pl, rec != nil), time.Now())
		}
	})
	return st, time.Since(start)
}

var coldSeq atomic.Int64

func (b *bench) bodyFor(pl planned, profile bool) []byte {
	tag := ""
	if pl.cold {
		tag = b.coldTag(coldSeq.Add(1))
	}
	return b.hot[pl.kind].variant(tag, profile)
}

// fire sends one request of a load phase and books it into st.
func (b *bench) fire(rec *recorder, st *loadStats, pl planned, body []byte, from time.Time) {
	root := rec.op("serve.http")
	tv, err := b.post(b.url, body, b.hot[pl.kind])
	rec.end(root)
	lat := time.Since(from).Seconds()
	st.requests++
	if err != nil {
		st.wrong = append(st.wrong, err)
		return
	}
	st.lat.add(lat)
	if pl.cold {
		st.missLat.add(lat)
	}
	recordServerSpans(rec, root, tv, st.spans)
}

// fanOut runs one load goroutine per PE (one connection each) and
// merges what they saw.
func (b *bench) fanOut(worker func(st *loadStats)) loadStats {
	parts := make([]loadStats, b.env.PEs)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		parts[i].spans = map[string]*samples{}
		go func(st *loadStats) {
			defer wg.Done()
			worker(st)
		}(&parts[i])
	}
	wg.Wait()
	var total loadStats
	for _, p := range parts {
		total.merge(p)
	}
	for _, err := range total.wrong {
		b.fail(err)
	}
	b.attempted += total.requests
	return total
}

// miss is one op of the miss phase: one forced miss of every request
// kind of the workload, sent one at a time to an otherwise idle server,
// and their mean: what a cache miss costs, without queueing mixed in.
// Every kind in every sample keeps the samples of one kind: a quartile
// of a mix of cheap and dear programs would sit on the edge between two
// of them.
func (b *bench) miss(rec *recorder) time.Duration {
	var sum time.Duration
	for _, p := range b.hot {
		body := p.variant(b.coldTag(coldSeq.Add(1)), rec != nil)
		root := rec.op("serve.http")
		sum += b.request(rec, b.url, p, body, root)
		rec.end(root)
	}
	return sum / time.Duration(len(b.hot))
}
