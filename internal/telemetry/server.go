package telemetry

import (
	"errors"
	"net"
	"net/http"
	"net/http/pprof"

	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// Introspection describes which debug endpoints to expose on a mux.
type Introspection struct {
	// Registry serves /metrics (Prometheus text) and, when Progress is
	// set, /progress. Defaults to obs.Default().
	Registry *obs.Registry
	// History, when non-nil, serves /debug/obs/history over the store.
	History *tsdb.Store
	// Progress registers the /progress campaign endpoint.
	Progress bool
}

// Register wires the introspection endpoints plus net/http/pprof onto mux.
// pprof needs explicit registration because these muxes are private — the
// handlers only self-register on http.DefaultServeMux.
func (in Introspection) Register(mux *http.ServeMux) {
	reg := in.Registry
	if reg == nil {
		reg = obs.Default()
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WriteProm(w)
	})
	if in.History != nil {
		mux.Handle("/debug/obs/history", &HistoryHandler{Store: in.History})
	}
	if in.Progress {
		mux.Handle("/progress", &ProgressHandler{Registry: reg})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// DebugServer is a running introspection listener (clasp -debug-addr).
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartDebug listens on addr (":0" picks an ephemeral port) and serves the
// introspection endpoints in the background. The listener lives on a side
// goroutine and never blocks or feeds back into campaign work.
func StartDebug(addr string, in Introspection) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	in.Register(mux)
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The debug listener is best-effort; a serve error must never
			// take the campaign down with it.
			_ = err
		}
	}()
	return &DebugServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with ":0").
func (d *DebugServer) Addr() net.Addr { return d.ln.Addr() }

// Close shuts the listener down immediately.
func (d *DebugServer) Close() error { return d.srv.Close() }
