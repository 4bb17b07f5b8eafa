package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/historian"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/serving"
	"repro/internal/shard"
	"repro/internal/uplink"

	mpros "repro"
)

// pdmedHealth is cmd/pdmed's default health configuration: event-time
// watermark, 5m late, 15m silent, 1h fresh, 24h horizon, floor 0.
func pdmedHealth() health.Config {
	return health.Config{
		LateAfter:        5 * time.Minute,
		SilentAfter:      15 * time.Minute,
		FreshFor:         time.Hour,
		StalenessHorizon: 24 * time.Hour,
	}
}

// station is one PDME node assembled the way cmd/pdmed assembles it with
// -journal-dir, -serve-addr and, in the shard role, -forward-addr: memory
// ship model and historian, event-time health, durable journal, forwarder,
// serving views over HTTP, and the TCP report server.
type station struct {
	db       *relstore.DB
	hist     *historian.Store
	engine   *pdme.PDME
	views    *serving.Views
	recovery pdme.RecoveryStats
	fwd      *shard.Forwarder
	resynced int

	server     *proto.Server
	reportAddr string
	http       *httpServer
	watch      *watcher
}

type stationConfig struct {
	journalDir string
	// forwardTo, when set, runs the shard role: conclusions stream to this
	// aggregator through a forwarder with pdmed's default in-memory spool
	// (recovery plus Resync rebuild its stream after a restart).
	forwardTo *aggregator
	led       *ledger
	// tr, when set, installs the traced run's seams.
	tr *tracer
}

func openStation(cfg stationConfig) (st *station, err error) {
	st = &station{db: relstore.NewMemory()}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.hist, err = historian.Open(historian.Options{}); err != nil {
		return st, err
	}
	model, err := oosm.NewModel(st.db)
	if err != nil {
		return st, err
	}
	if cfg.tr != nil {
		// Registered before the PDME's own subscription, so it runs first:
		// the report object exists (journal append done), fusion not yet
		// started.
		cfg.tr.watchReports(model)
	}
	if st.engine, err = pdme.NewWithHistorian(model, mpros.ChillerGroups(), st.hist); err != nil {
		return st, err
	}
	if err = st.engine.ConfigureHealth(pdmedHealth()); err != nil {
		return st, err
	}
	if st.recovery, err = st.engine.OpenJournal(pdme.JournalOptions{Dir: cfg.journalDir}); err != nil {
		return st, err
	}
	if cfg.forwardTo != nil {
		st.fwd, err = shard.Forward(st.engine, shard.ForwarderConfig{
			ShardID:        "shard-1",
			AggregatorAddr: cfg.forwardTo.addr,
		})
		if err != nil {
			return st, err
		}
		st.resynced = st.fwd.Resync()
	}
	if st.views, err = serving.Open(st.engine, serving.Options{WallClockTolerance: time.Second}); err != nil {
		return st, err
	}
	if cfg.tr != nil {
		st.engine.SetInvalidator(cfg.tr.invalidator(st.views))
	}
	if st.http, err = serveHTTP(serving.Server(st.views)); err != nil {
		return st, err
	}
	st.watch = startWatcher(st.views, cfg.led)
	st.reportAddr, st.server, err = st.engine.ServeWithIdleTimeout("127.0.0.1:0", proto.DefaultIdleTimeout)
	return st, err
}

// close tears the station down in reverse order; safe on a partial build.
func (st *station) close() {
	if st.server != nil {
		_ = st.server.Close()
	}
	if st.watch != nil {
		st.watch.close()
	}
	if st.http != nil {
		st.http.close()
	}
	if st.views != nil {
		st.views.Close()
	}
	if st.fwd != nil {
		_ = st.fwd.Close()
	}
	if st.engine != nil {
		st.engine.Close()
	}
	if st.hist != nil {
		_ = st.hist.Close()
	}
	_ = st.db.Close()
}

// newUplink opens a DC uplink the way cmd/dcsim does with -spool-dir.
func newUplink(addr, dcid, spoolRoot string, seed int64) (*uplink.Uplink, error) {
	return uplink.New(uplink.Config{
		Addr:     addr,
		DCID:     dcid,
		SpoolDir: filepath.Join(spoolRoot, dcid),
		Seed:     seed,
	})
}

// httpServer is a read-side API listener on an ephemeral loopback port.
type httpServer struct {
	srv  *http.Server
	addr string
	done chan error
}

func serveHTTP(srv *http.Server) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *httpServer) close() {
	_ = s.srv.Close()
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("perfbench: http server:", err)
	}
}

// aggregator is the global tier the station's forwarder streams to: a
// shard.Aggregator behind a summary server wired like Aggregator.Serve,
// with this process's summary sink in front so each accept is timed.
type aggregator struct {
	agg   *shard.Aggregator
	dedup *proto.Dedup
	srv   *proto.Server
	addr  string
	http  *httpServer
	// led receives accept windows once load starts (nil during set-up, so
	// the resync stream is not mistaken for load).
	led atomic.Pointer[ledger]
}

func openAggregator() (*aggregator, error) {
	agg, err := shard.NewAggregator(shard.AggregatorConfig{Health: pdmedHealth()})
	if err != nil {
		return nil, err
	}
	a := &aggregator{agg: agg, dedup: proto.NewDedup(shard.DefaultDedupWindow)}
	a.srv = proto.NewServer(agg)
	a.srv.SetDedup(a.dedup)
	a.srv.SetSummarySink(a)
	a.srv.SetHeartbeatSink(agg)
	if a.addr, err = a.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if a.http, err = serveHTTP(&http.Server{Handler: serving.AggregatorHandler(agg)}); err != nil {
		_ = a.srv.Close()
		return nil, err
	}
	return a, nil
}

// DeliverSummary implements proto.SummarySink.
func (a *aggregator) DeliverSummary(s *proto.FusedSummary, shardID string, boot, seq uint64) error {
	in := time.Now()
	err := a.agg.DeliverSummary(s, shardID, boot, seq)
	out := time.Now()
	if err != nil {
		return err
	}
	if led := a.led.Load(); led != nil {
		led.aggAccepted(s.Component, s.Condition, in, out)
	}
	return nil
}

func (a *aggregator) close() {
	a.http.close()
	_ = a.srv.Close()
}

// waitFor polls cond every millisecond until it holds or the timeout
// passes.
func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
