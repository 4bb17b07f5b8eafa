package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/serving"
	"repro/internal/shard"
)

// tracer installs the traced run's seams on a station and turns the
// resolved journeys into per-layer metrics. All seams are public: the
// pdme.Invalidator the serving tier registers, an OOSM report-creation
// subscription, Views.Watch, the uplink sink and the aggregator's summary
// sink. Layers without a seam inside a call are timed by calling their
// public functions on the run's own inputs (probes.go).
type tracer struct {
	led *ledger
	// checkpoints counts journal checkpoints seen by a sampler during the
	// measured window.
	checkpoints int
	ckpt        *sampler
}

// watchReports subscribes to report-object creation: the accept path has
// journaled the envelope and posted the report; fusion runs next.
func (t *tracer) watchReports(model *oosm.Model) {
	model.SubscribeClass(pdme.ReportClass, oosm.ObjectCreated, func(e oosm.Event) {
		at := time.Now()
		props, err := model.Get(e.Object)
		if err != nil {
			return
		}
		comp, _ := props["sensed"].(string)
		t.led.record(comp, at, func(ev *compEvents) *[]time.Time { return &ev.created })
	})
}

// tracedInvalidator wraps the serving tier's write-window hook, timing
// each accept's window and the invalidation + notify fan-out.
type tracedInvalidator struct {
	v   *serving.Views
	led *ledger
}

func (t *tracer) invalidator(v *serving.Views) pdme.Invalidator {
	return &tracedInvalidator{v: v, led: t.led}
}

func (ti *tracedInvalidator) BeginMutation(component, condition string) {
	ti.led.record(component, time.Now(), func(ev *compEvents) *[]time.Time { return &ev.begin })
	ti.v.BeginMutation(component, condition)
}

func (ti *tracedInvalidator) EndMutation(component, condition string) {
	in := time.Now()
	ti.v.EndMutation(component, condition)
	out := time.Now()
	ti.led.mu.Lock()
	ev := ti.led.events(component)
	ev.endIn = append(ev.endIn, in)
	ev.endOut = append(ev.endOut, out)
	ti.led.mu.Unlock()
}

// InvalidateAll keeps the wrapper a pdme.RecoveryInvalidator.
func (ti *tracedInvalidator) InvalidateAll() { ti.v.InvalidateAll() }

// watchCheckpoints samples the journal's checkpoint watermark until the
// window closes.
func (t *tracer) watchCheckpoints(engine *pdme.PDME) {
	var last uint64
	first := true
	t.ckpt = startSampler(5*time.Millisecond, func() {
		_, _, ck, _ := engine.JournalInfo()
		if !first && ck != last {
			t.checkpoints++
		}
		first, last = false, ck
	})
}

func (t *tracer) stopCheckpoints() {
	if t.ckpt != nil {
		t.ckpt.stop()
		t.ckpt = nil
	}
}

// layers derives the per-layer metrics of the live seams from the window's
// journeys, and writes every span out.
func (t *tracer) layers(b *bench, r *rig, js []*journey) {
	var emit, deliver, queue, accept, jrnl, fuse, endMut, notify, fwd, aggr, fresh []float64
	var busy time.Duration
	for _, j := range js {
		emit = append(emit, us(j.emitOut.Sub(j.emitIn)))
		deliver = append(deliver, us(j.delOut.Sub(j.delIn)))
		queue = append(queue, ms(j.begin.Sub(j.delOut)))
		accept = append(accept, us(j.endOut.Sub(j.begin)))
		jrnl = append(jrnl, us(j.created.Sub(j.begin)))
		fuse = append(fuse, us(j.endIn.Sub(j.created)))
		endMut = append(endMut, us(j.endOut.Sub(j.endIn)))
		notify = append(notify, us(j.notice.Sub(j.endIn)))
		fresh = append(fresh, ms(j.notice.Sub(j.origin)))
		busy += j.endOut.Sub(j.begin)
		if r.agg != nil {
			fwd = append(fwd, ms(j.aggIn.Sub(j.endOut)))
			aggr = append(aggr, us(j.aggOut.Sub(j.aggIn)))
		}
	}
	b.set("dc.emit_us", median(emit))
	b.set("uplink.deliver_us", median(deliver))
	b.set("uplink.queue_p50_ms", quantile(queue, 0.5))
	b.set("uplink.queue_p99_ms", quantile(queue, 0.99))
	b.set("pdme.accept_p50_us", quantile(accept, 0.5))
	b.set("pdme.accept_p99_us", quantile(accept, 0.99))
	b.set("pdme.journal_us", median(jrnl))
	b.set("pdme.fuse_us", median(fuse))
	b.set("serving.notify_us", median(notify))
	b.set("pdme.accept_inflight_mean", busy.Seconds()/b.seconds.Seconds())
	b.set("journal.checkpoints", float64(t.checkpoints))
	if r.agg != nil {
		b.set("shard.forward_ms", median(fwd))
		b.set("shard.aggregate_us", median(aggr))
	}

	// Shares of the accept span: its journal, fusion and invalidate/notify
	// children. They share their endpoints, so they add up to one and the
	// accept span has no self time left over; the shares say which child
	// dominates.
	mAcc, mJ, mF, mE := mean(accept), mean(jrnl), mean(fuse), mean(endMut)
	b.info["accept_self_time_share"] = map[string]float64{
		"pdme.journal":        mJ / mAcc,
		"pdme.fuse":           mF / mAcc,
		"serving.endmutation": mE / mAcc,
	}
	// The contiguous chain from origin to notice — DC compute (tick) or
	// generator lateness (station), uplink.Deliver, uplink queue + wire,
	// journal, fusion, notify — each span's median, summed, against the
	// median freshness. Adjacent spans share their endpoints, so per report
	// the spans always add up to its freshness, and a stage without a seam
	// is counted in the span beside it. The medians do not add up exactly:
	// the share departs from one as far as the spans' spreads do not move
	// together, which is what it shows.
	chain := map[string][]float64{}
	for _, j := range js {
		chain["origin_to_deliver"] = append(chain["origin_to_deliver"], ms(j.delIn.Sub(j.origin)))
		chain["uplink.deliver"] = append(chain["uplink.deliver"], ms(j.delOut.Sub(j.delIn)))
		chain["uplink.queue"] = append(chain["uplink.queue"], ms(j.begin.Sub(j.delOut)))
		chain["pdme.journal"] = append(chain["pdme.journal"], ms(j.created.Sub(j.begin)))
		chain["pdme.fuse"] = append(chain["pdme.fuse"], ms(j.endIn.Sub(j.created)))
		chain["serving.notify"] = append(chain["serving.notify"], ms(j.notice.Sub(j.endIn)))
	}
	breakdown := map[string]float64{"fresh_p50": median(fresh)}
	var sum float64
	for name, xs := range chain {
		breakdown[name] = median(xs)
		sum += median(xs)
	}
	b.set("trace.fresh_accounted_share", sum/median(fresh))
	b.info["fresh_p50_breakdown_ms"] = breakdown
	if err := t.writeSpans(b, r); err != nil {
		fmt.Println("perfbench: write spans:", err)
	}
}

// writeSpans writes every journey's spans as tab-separated lines: name,
// parent, dcid, boot, seq, start and end in ns since the load started.
func (t *tracer) writeSpans(b *bench, r *rig) error {
	dir := filepath.Join(filepath.Dir(filepath.Dir(b.dir)), "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", b.workload, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	base := r.from.Add(-b.warmup)
	fmt.Fprintln(w, "name\tparent\tdcid\tboot\tseq\tstart_ns\tend_ns")
	r.led.mu.Lock()
	for _, j := range r.led.journeys {
		span := func(name, parent string, from, to time.Time) {
			if from.IsZero() || to.IsZero() {
				return
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\t%d\n", name, parent, j.dcid, j.boot, j.seq, from.Sub(base).Nanoseconds(), to.Sub(base).Nanoseconds())
		}
		span("report", "", j.origin, j.notice)
		span("dc.emit", "report", j.emitIn, j.emitOut)
		span("uplink.deliver", "dc.emit", j.delIn, j.delOut)
		span("uplink.queue", "report", j.delOut, j.begin)
		span("pdme.accept", "report", j.begin, j.endOut)
		span("pdme.journal", "pdme.accept", j.begin, j.created)
		span("pdme.fuse", "pdme.accept", j.created, j.endIn)
		span("serving.endmutation", "pdme.accept", j.endIn, j.endOut)
		span("serving.notify", "report", j.endIn, j.notice)
		span("shard.forward", "report", j.endOut, j.aggIn)
		span("shard.aggregate", "shard.forward", j.aggIn, j.aggOut)
	}
	r.led.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	b.info["spans_file"] = path
	return f.Close()
}

// probes times the serving and shard layers' public functions at
// quiescence after the measured phase; on workloads without a forwarder
// a forwarder and aggregator are attached for the shard probe only.
func (t *tracer) probes(b *bench, r *rig) error {
	st := r.st
	items := st.engine.PrioritizedList()
	var ranked, belief, httpLat []float64
	for i := 0; i < 20; i++ {
		st.views.InvalidateAll()
		t0 := time.Now()
		st.views.Ranked()
		ranked = append(ranked, us(time.Since(t0)))
		if len(items) > 0 {
			it := items[i%len(items)]
			st.views.InvalidateAll()
			t0 = time.Now()
			if _, err := st.views.Belief(it.Component, it.Condition); err != nil {
				return fmt.Errorf("belief probe: %w", err)
			}
			belief = append(belief, us(time.Since(t0)))
		}
	}
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		resp, err := client.Get("http://" + st.http.addr + "/ranked")
		if err != nil {
			return fmt.Errorf("http probe: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("http probe: status %d, %v", resp.StatusCode, err)
		}
		httpLat = append(httpLat, us(time.Since(t0)))
	}
	b.set("serving.ranked_us", median(ranked))
	b.set("serving.belief_us", median(belief))
	b.set("serving.http_us", median(httpLat))

	agg := r.agg
	if agg == nil {
		var err error
		if agg, err = openAggregator(); err != nil {
			return err
		}
		defer agg.close()
		led := newLedger()
		agg.led.Store(led)
		fwd, err := shard.Forward(st.engine, shard.ForwarderConfig{ShardID: "probe", AggregatorAddr: agg.addr})
		if err != nil {
			return err
		}
		t0 := time.Now()
		n := fwd.Resync()
		werr := waitFor(60*time.Second, "probe summaries", func() bool { return agg.agg.Accepted()+agg.agg.StaleDropped() >= int64(n) })
		elapsed := time.Since(t0)
		_ = fwd.Close()
		if werr != nil {
			return werr
		}
		var aggr []float64
		for _, ws := range led.pair {
			for _, w := range ws {
				aggr = append(aggr, us(w[1].Sub(w[0])))
			}
		}
		if n > 0 {
			b.set("shard.forward_ms", ms(elapsed)/float64(n))
		}
		b.set("shard.aggregate_us", median(aggr))
	}
	var gr []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		agg.agg.GlobalRanked()
		gr = append(gr, us(time.Since(t0)))
	}
	b.set("shard.global_ranked_us", median(gr))
	if r.agg != nil {
		b.set("shard.stale_dropped", float64(r.agg.agg.StaleDropped()))
	} else {
		b.set("shard.stale_dropped", 0)
	}
	return nil
}

// encodeProbe times proto.AppendReportEnvelope — the wire encoding the
// uplink client runs per send — over the run's reports, and sets the mean
// frame size (which also sizes the journal probe's records).
func encodeProbe(b *bench, ems []*emitter) {
	var lat []float64
	var bytes, n float64
	buf := make([]byte, 0, 4096)
	for _, e := range ems {
		for i, r := range e.sent {
			if i >= 2000 {
				break
			}
			t0 := time.Now()
			out, err := proto.AppendReportEnvelope(buf[:0], r, e.dcid, e.up.Boot(), uint64(i+1))
			d := time.Since(t0)
			if err != nil {
				continue
			}
			buf = out
			lat = append(lat, us(d))
			bytes += float64(len(out))
			n++
		}
	}
	if n > 0 {
		b.set("proto.encode_us", median(lat))
		b.set("proto.frame_bytes", bytes/n)
	}
}
