package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// client is one keep-alive HTTP connection to benesd.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		base: base,
	}
}

// do sends o and checks the reply.
func (c *client) do(o *op) error {
	resp, err := c.hc.Post(c.base+o.kind.path(), "application/json", bytes.NewReader(encode(o)))
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s: reading reply: %w", o.kind.path(), err)
	}
	return o.check(resp.StatusCode, c.buf.Bytes())
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// loadResult is what the closed loop measured inside the timed window.
type loadResult struct {
	attempted int
	failed    int
	values    int64
	lat       []time.Duration // one per op started and finished in the window
	firstErr  error           // first failure, window or warm-up
	warmFail  int             // failures during the warm-up
}

// closedLoop drives benesd from conns connections, each sending its
// stream's next request only once the previous reply is in. Ops that
// start at or after warmEnd and finish by end are measured; the rest
// are warm-up, checked but not counted.
func closedLoop(base string, streams []*stream, warmEnd, end time.Time) *loadResult {
	parts := make([]*loadResult, len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st *stream) {
			defer wg.Done()
			parts[i] = connLoop(newClient(base), st, warmEnd, end)
		}(i, st)
	}
	wg.Wait()
	total := &loadResult{}
	for _, p := range parts {
		total.attempted += p.attempted
		total.failed += p.failed
		total.values += p.values
		total.warmFail += p.warmFail
		total.lat = append(total.lat, p.lat...)
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
	}
	return total
}

func connLoop(c *client, st *stream, warmEnd, end time.Time) *loadResult {
	defer c.close()
	r := &loadResult{lat: make([]time.Duration, 0, 1<<16)}
	for {
		o := st.next()
		t0 := time.Now()
		if !t0.Before(end) {
			return r
		}
		err := c.do(o)
		t1 := time.Now()
		if err != nil && r.firstErr == nil {
			r.firstErr = err
		}
		if t0.Before(warmEnd) || t1.After(end) {
			if err != nil {
				r.warmFail++
			}
			continue
		}
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		r.values += int64(o.values())
		r.lat = append(r.lat, t1.Sub(t0))
	}
}
