package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"cloversim"
	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/sweepd"
)

// daemon is one in-process sweepd worker on loopback, serving a store
// the way cmd/sweepd does, with one simulation slot.
type daemon struct {
	url    string
	st     *store.Store
	openS  time.Duration // time store.Open took
	srv    *http.Server
	served chan struct{} // closed when Serve returns
}

// startDaemon opens the store in dir and serves it until stop. With a
// tracer, the daemon's handler and store Get are traced while the
// tracer is on.
func startDaemon(ctx context.Context, dir string, worker int, tr *tracer) (*daemon, error) {
	t0 := time.Now()
	st, err := store.Open(dir, cloversim.PhysicsVersion)
	if err != nil {
		return nil, err
	}
	d := &daemon{st: st, openS: time.Since(t0), served: make(chan struct{})}
	var rs sweepd.ResultStore = st
	runner := sweep.RunnerContext(cloversim.RunScenarioContext)
	if tr != nil {
		rs = daemonStore{Store: st, tr: tr, worker: worker}
		runner = tr.tracedRunner(runner)
	}
	h := sweepd.New(rs, runner, 1).Handler()
	if tr != nil {
		h = tr.tracedHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln) //nolint:errcheck // always http.ErrServerClosed after stop
	}()
	if _, err := sweepd.NewClient(d.url).Healthz(ctx); err != nil {
		return nil, errors.Join(fmt.Errorf("daemon %s: %w", d.url, err), d.stop())
	}
	return d, nil
}

// stop shuts the server down, waits for it to return and closes the
// store.
func (d *daemon) stop() error {
	err := d.srv.Close()
	<-d.served
	return errors.Join(err, d.st.Close())
}
