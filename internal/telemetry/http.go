package telemetry

// ObsServer is cubeserved's stdlib-only observability endpoint:
// /metrics in Prometheus text exposition format, /healthz (process
// liveness) and /readyz (able to serve). The handlers are plain
// callbacks so the caller decides what "metrics" and "ready" mean; the
// server owns only the listener plumbing. Scrapes run on HTTP
// goroutines — callbacks must do their own synchronization (the block
// service funnels through its core goroutine).

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Health is a liveness/readiness verdict plus a short human detail
// string rendered into the response body.
type Health struct {
	OK     bool
	Detail string
}

// ObsServer serves /metrics, /healthz, and /readyz on one listener.
type ObsServer struct {
	mu      sync.Mutex
	metrics func(io.Writer) error
	health  func() Health
	ready   func() Health
	ln      net.Listener
	srv     *http.Server
}

// NewObsServer returns a server with permissive defaults: empty
// metrics, healthy, ready.
func NewObsServer() *ObsServer {
	return &ObsServer{
		metrics: func(io.Writer) error { return nil },
		health:  func() Health { return Health{OK: true, Detail: "ok"} },
		ready:   func() Health { return Health{OK: true, Detail: "ok"} },
	}
}

// SetMetrics installs the /metrics body producer (exposition text).
func (o *ObsServer) SetMetrics(fn func(io.Writer) error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.metrics = fn
}

// SetHealth installs the /healthz callback.
func (o *ObsServer) SetHealth(fn func() Health) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.health = fn
}

// SetReady installs the /readyz callback.
func (o *ObsServer) SetReady(fn func() Health) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ready = fn
}

// Handler returns the route mux — exported so tests can drive the
// endpoints without a listener.
func (o *ObsServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		o.mu.Lock()
		fn := o.metrics
		o.mu.Unlock()
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			http.Error(w, "metrics: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		o.mu.Lock()
		fn := o.health
		o.mu.Unlock()
		writeHealth(w, fn())
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		o.mu.Lock()
		fn := o.ready
		o.mu.Unlock()
		writeHealth(w, fn())
	})
	return mux
}

func writeHealth(w http.ResponseWriter, h Health) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !h.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	body := h.Detail
	if body == "" {
		if h.OK {
			body = "ok"
		} else {
			body = "unavailable"
		}
	}
	_, _ = io.WriteString(w, body+"\n")
}

// Start binds addr (e.g. "127.0.0.1:0") and serves in a background
// goroutine, returning the bound address.
func (o *ObsServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: o.Handler(), ReadHeaderTimeout: 5 * time.Second}
	o.mu.Lock()
	o.ln = ln
	o.srv = srv
	o.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Addr returns the bound address, or "" before Start.
func (o *ObsServer) Addr() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ln == nil {
		return ""
	}
	return o.ln.Addr().String()
}

// Close stops the listener. Safe to call before Start or twice.
func (o *ObsServer) Close() error {
	o.mu.Lock()
	srv := o.srv
	o.srv, o.ln = nil, nil
	o.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}
