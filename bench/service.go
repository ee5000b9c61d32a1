package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/betweenness"
	"repro/graph"
	"repro/internal/server"
)

const (
	serviceEps     = 0.005
	serviceClients = 2
	// pollInterval is the status-poll period of the repository's own
	// clients (scripts/server_smoke.sh, scripts/crash_smoke.sh). A client
	// learns that its session ended from the daemon's event stream, not
	// from these polls, so the poll period does not bound session_s.
	pollInterval = 100 * time.Millisecond
	// streamTimeout bounds the wait for a session's final event.
	streamTimeout = 60 * time.Second
	requestHeader = "X-Bench-Request"
	spanHeader    = "X-Bench-Span"
)

// handlerTimer is the timing middleware around Server.Handler(): it keeps
// each request's handler time under the client's request ID, so the client
// can split its round trip into handler time and waiting, and records a
// server span under the client's span when the request carries one.
type handlerTimer struct {
	next http.Handler
	tr   *tracer
	mu   sync.Mutex
	took map[string]time.Duration
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	id := r.Header.Get(requestHeader)
	if id == "" {
		return
	}
	h.mu.Lock()
	h.took[id] = end.Sub(start)
	h.mu.Unlock()
	if parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
		h.tr.record(parent, "server."+routeName(r.Method, r.URL.Path), start, end, id, nil)
	}
}

// handlerTime returns and forgets the handler time of request id.
func (h *handlerTimer) handlerTime(id string) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.took[id]
	delete(h.took, id)
	return d
}

// routeName names the server route a request hit, for span names; path
// may carry a query string.
func routeName(method, path string) string {
	path, _, _ = strings.Cut(path, "?")
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case parts[0] == "graphs":
		return "upload"
	case parts[0] == "stats":
		return "stats"
	case len(parts) == 1:
		return "create"
	case len(parts) == 3:
		return parts[2]
	case method == http.MethodDelete:
		return "delete"
	}
	return "status"
}

// daemon is one in-process betweennessd behind a loopback listener.
type daemon struct {
	srv    *server.Server
	timer  *handlerTimer
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
	dir    string
}

func startDaemon(e *env) (*daemon, error) {
	dir, err := os.MkdirTemp(e.work, "data")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	timer := &handlerTimer{next: srv.Handler(), tr: e.tr, took: map[string]time.Duration{}}
	d := &daemon{
		srv: srv, timer: timer, hs: &http.Server{Handler: timer},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}},
		served: make(chan struct{}), dir: dir,
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return d, nil
}

// stop shuts the listener down, drains the daemon and removes its data.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // only fails when ctx expires; Drain below still runs
	<-d.served
	d.client.CloseIdleConnections()
	_ = d.srv.Drain(ctx) // drain errors leave files behind, removed next
	os.RemoveAll(d.dir)
}

// call is one HTTP exchange as the client saw it.
type call struct {
	body    []byte
	rtt     time.Duration
	handler time.Duration
}

// do sends one request and decodes a JSON response into out (when non-nil).
// Any status >= 400 is an error. traced requests record a client span under
// parent and carry its ID so the server span pairs with it.
func (d *daemon) do(e *env, traced bool, parent int64, method, path string, body io.Reader, out any) (call, error) {
	req, err := http.NewRequest(method, d.base+path, body)
	if err != nil {
		return call{}, err
	}
	var tr *tracer
	if traced {
		tr = e.tr
	}
	id := tr.reserve()
	reqID := fmt.Sprintf("%d-%d", e.seed, requestCounter.Add(1))
	req.Header.Set(requestHeader, reqID)
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	var c call
	if err == nil {
		c.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	c.rtt = end.Sub(start)
	c.handler = d.timer.handlerTime(reqID)
	if tr != nil {
		tr.finish(id, parent, "client."+routeName(method, path), start, end, reqID, nil)
	}
	if err != nil {
		return c, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		return c, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.body))
	}
	if out != nil {
		if err := json.Unmarshal(c.body, out); err != nil {
			return c, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return c, nil
}

// runService is service: an in-process daemon fed the social edge list,
// then serviceClients closed-loop clients, each alternating a fresh query
// with a repeat of the query it just had answered.
func runService(e *env) error {
	input := e.path("social.txt")
	if err := writeSocialInput(input, e.derive("social", 0)); err != nil {
		return err
	}
	mb, err := fileMB(input)
	if err != nil {
		return err
	}
	// The reference: exact scores of the component the daemon keeps,
	// computed here the way the upload handler reduces the graph.
	g, err := graph.LoadFile(input)
	if err != nil {
		return err
	}
	if g, _, err = graph.LargestComponent(g); err != nil {
		return err
	}
	wantDigest := g.Digest()
	ref, err := e.reference(betweenness.Undirected(g).Digest(), func() ([]float64, error) {
		return betweenness.Exact(g, e.threads), nil
	})
	if err != nil {
		return err
	}
	g = nil
	e.resetPeak()

	d, err := repeatSetup(e, func() (*daemon, func(), error) {
		d, err := startDaemon(e)
		if err != nil {
			return nil, nil, err
		}
		f, err := os.Open(input)
		if err != nil {
			d.stop()
			return nil, nil, err
		}
		defer f.Close()
		var info struct {
			Digest string `json:"digest"`
		}
		c, err := d.do(e, e.traced, 0, http.MethodPost, "/graphs?name=social", f, &info)
		if err != nil {
			d.stop()
			return nil, nil, err
		}
		e.m.add("server.upload_s", c.handler.Seconds())
		e.m.add("ingest.s", c.handler.Seconds())
		e.m.add("ingest.mb_s", mb/c.handler.Seconds())
		if info.Digest != wantDigest {
			e.check(fmt.Errorf("daemon digest %s, reference graph %s", info.Digest, wantDigest))
		}
		return d, d.stop, nil
	}, nil)
	if err != nil {
		return err
	}
	defer d.stop()

	var mu sync.Mutex
	var tracedS, untracedS []float64
	// On a traced run fresh queries alternate traced and untraced, and the
	// two clients start on opposite halves, so trace.overhead compares like
	// with like even when each client gets only one query in.
	fresh := func(client, i int, timed bool) (uint64, error) {
		seed := e.derive(fmt.Sprintf("service-client%d", client), i)
		traced := e.traced && (client+i)%2 == 1
		s, err := d.session(e, traced, seed, false, ref)
		if err != nil {
			return seed, err
		}
		if timed {
			e.m.add("session_s", s.wall.Seconds())
			e.m.add("solve_s", s.wall.Seconds())
			e.m.add("samples_per_s", float64(s.tau)/s.wall.Seconds())
			e.recordResult(s.tau, s.epochs, s.vd, s.samplesPerSec)
			s.recordServer(e)
			mu.Lock()
			if traced {
				tracedS = append(tracedS, s.wall.Seconds())
			} else {
				untracedS = append(untracedS, s.wall.Seconds())
			}
			mu.Unlock()
		}
		return seed, nil
	}
	repeat := func(seed uint64) error {
		s, err := d.session(e, e.traced, seed, true, ref)
		if err == nil {
			e.m.add("cached_session_ms", s.wall.Seconds()*1e3)
		}
		return err
	}

	_, err = fresh(0, -1, false) // warm-up, outside the window
	e.check(err)
	deadline := time.Now().Add(e.window)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				seed, err := fresh(c, i, true)
				e.check(err)
				if err == nil {
					e.check(repeat(seed))
				}
			}
		}(c)
	}
	wg.Wait()

	var st struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if _, err := d.do(e, false, 0, http.MethodGet, "/stats", nil, &st); err != nil {
		return err
	}
	e.m.add("server.cache_hits", float64(st.Cache.Hits))
	e.m.add("server.cache_misses", float64(st.Cache.Misses))
	e.recordPeak()
	if e.traced {
		e.overhead(tracedS, untracedS)
		return e.runProbes()
	}
	return nil
}

// sessionRun is what one client saw of one session.
type sessionRun struct {
	wall, queue         time.Duration
	create, run, result call
	polls               []call
	tau                 int64
	epochs, vd          int
	samplesPerSec       float64
}

// session creates a session, subscribes to its event stream, runs it, and
// waits on the stream for its final event while polling its status every
// pollInterval. It then checks the converged result against ref and
// deletes the session. wantCached says the query repeats an answered one,
// so the daemon must serve it from its result cache.
func (d *daemon) session(e *env, traced bool, seed uint64, wantCached bool, ref []float64) (*sessionRun, error) {
	var root int64
	var rootStart time.Time
	if traced {
		root, rootStart = e.tr.reserve(), time.Now()
	}
	name := "client.session"
	if wantCached {
		name = "client.cached_session"
	}
	s := &sessionRun{}
	err := func() error {
		body, _ := json.Marshal(map[string]any{"graph": "social", "eps": serviceEps, "delta": delta, "seed": seed}) // plain values: cannot fail
		start := time.Now()
		var created struct {
			ID string `json:"id"`
		}
		var err error
		if s.create, err = d.do(e, traced, root, http.MethodPost, "/sessions", bytes.NewReader(body), &created); err != nil {
			return err
		}
		path := "/sessions/" + created.ID
		ctx, cancel := context.WithTimeout(context.Background(), streamTimeout)
		defer cancel()
		ev, err := d.openEvents(ctx, path)
		if err != nil {
			return err
		}
		defer ev.close()
		if s.run, err = d.do(e, traced, root, http.MethodPost, path+"/run", nil, nil); err != nil {
			return err
		}
		accepted := time.Now()

		done := make(chan struct{})
		polled := make(chan error, 1)
		go func() {
			tick := time.NewTicker(pollInterval)
			defer tick.Stop()
			for {
				select {
				case <-done:
					polled <- nil
					return
				case <-tick.C:
				}
				c, err := d.do(e, traced, root, http.MethodGet, path, nil, nil)
				if err != nil {
					polled <- err
					return
				}
				s.polls = append(s.polls, c)
			}
		}()
		waitStart := time.Now()
		final, err := ev.waitFinal(func() { s.queue = time.Since(accepted) })
		s.wall = time.Since(start)
		close(done)
		if perr := <-polled; err == nil {
			err = perr
		}
		if traced {
			e.tr.record(root, "client.events", waitStart, time.Now(), "", map[string]any{"final": final})
		}
		if err != nil {
			return fmt.Errorf("session %s: %w", created.ID, err)
		}

		var status struct {
			Converged bool   `json:"converged"`
			Cached    bool   `json:"cached"`
			Error     string `json:"error"`
			Snapshot  struct {
				Epoch         int     `json:"epoch"`
				SamplesPerSec float64 `json:"samples_per_sec"`
			} `json:"snapshot"`
		}
		if _, err := d.do(e, traced, root, http.MethodGet, path, nil, &status); err != nil {
			return err
		}
		if status.Error != "" || final != "result" {
			return fmt.Errorf("session %s: ended with %q: %s", created.ID, final, status.Error)
		}
		if wantCached && !status.Cached {
			return fmt.Errorf("session %s: repeated query not served from the cache", created.ID)
		}
		var res struct {
			Tau       int64     `json:"tau"`
			Converged bool      `json:"converged"`
			VD        int       `json:"vertex_diameter"`
			Estimates []float64 `json:"estimates"`
		}
		if s.result, err = d.do(e, traced, root, http.MethodGet, path+"/result?estimates=1", nil, &res); err != nil {
			return err
		}
		s.tau, s.vd, s.epochs, s.samplesPerSec = res.Tau, res.VD, status.Snapshot.Epoch, status.Snapshot.SamplesPerSec
		if err := e.gate(ref, res.Estimates, res.Converged && status.Converged, serviceEps); err != nil {
			return fmt.Errorf("session %s: %w", created.ID, err)
		}
		_, err = d.do(e, traced, root, http.MethodDelete, path, nil, nil)
		return err
	}()
	if traced {
		e.tr.finish(root, 0, name, rootStart, time.Now(), "", map[string]any{"seed": seed})
	}
	return s, err
}

// eventStream is an open GET /sessions/{id}/events response.
type eventStream struct {
	body io.ReadCloser
	r    *bufio.Reader
}

// openEvents subscribes to a session's event stream and reads its opening
// status frame, after which the daemon sends the session every event. The
// request carries no request ID: the stream's handler ends only when the
// client hangs up, so it has no handler time to pair.
func (d *daemon) openEvents(ctx context.Context, path string) (*eventStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s/events: %w", path, err)
	}
	ev := &eventStream{body: resp.Body, r: bufio.NewReader(resp.Body)}
	if resp.StatusCode >= 400 {
		ev.close()
		return nil, fmt.Errorf("GET %s/events: HTTP %d", path, resp.StatusCode)
	}
	if name, _, err := ev.next(); err != nil || name != "status" {
		ev.close()
		return nil, fmt.Errorf("GET %s/events: opening frame %q: %v", path, name, err)
	}
	return ev, nil
}

func (ev *eventStream) close() { ev.body.Close() }

// next reads one event and returns its name and data.
func (ev *eventStream) next() (name, data string, err error) {
	for {
		line, err := ev.r.ReadString('\n')
		if err != nil {
			return "", "", err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" && name != "" {
			return name, data, nil
		}
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			name = v
		} else if v, ok := strings.CutPrefix(line, "data: "); ok {
			data = v
		}
	}
}

// waitFinal reads events until the one that ends a run — result,
// interrupted or error — and returns its name. running is called when the
// run leaves the queue for a worker slot.
func (ev *eventStream) waitFinal(running func()) (string, error) {
	for {
		name, data, err := ev.next()
		if err != nil {
			return "", fmt.Errorf("event stream: %w", err)
		}
		switch name {
		case "result", "interrupted", "error":
			return name, nil
		case "state":
			if strings.Contains(data, `"running"`) {
				running()
			}
		}
	}
}

// recordServer records the daemon-side split of one fresh session.
func (s *sessionRun) recordServer(e *env) {
	e.m.add("server.create_ms", s.create.handler.Seconds()*1e3)
	e.m.add("server.run_accept_ms", s.run.handler.Seconds()*1e3)
	e.m.add("server.result_ms", s.result.handler.Seconds()*1e3)
	e.m.add("server.queue_s", s.queue.Seconds())
	for _, p := range s.polls {
		e.m.add("poll_ms", p.rtt.Seconds()*1e3)
		e.m.add("poll_p99_ms", p.rtt.Seconds()*1e3)
		e.m.add("server.status_ms", p.handler.Seconds()*1e3)
		e.m.add("server.status_p99_ms", p.handler.Seconds()*1e3)
		e.m.add("server.status_wait_p99_ms", (p.rtt-p.handler).Seconds()*1e3)
	}
}

// requestCounter numbers requests so every request ID is unique.
var requestCounter atomic.Int64
