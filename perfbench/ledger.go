package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/serving"
	"repro/internal/uplink"
)

// journey is one generated report's path through the stack. The generator
// fills the tag, origin and hand-off; the stack's seams fill the rest after
// the run, by position: every component is reported on by exactly one DC,
// whose uplink delivers in order, so the k-th event a seam sees for a
// component belongs to the k-th report generated for it.
type journey struct {
	dcid      string
	boot, seq uint64
	comp      string
	cond      string
	origin    time.Time
	// handoff is when the DC handed the report to its uplink.
	handoff time.Time

	// Generator side, traced runs only: emitter entry/exit around
	// uplink.Deliver.
	emitIn, delIn, delOut, emitOut time.Time
	// Stack side: the write window (traced), the report object's creation
	// in the model (traced), the watch notice, and the aggregator's accept
	// of the pair's summary (station).
	begin, created, endIn, endOut time.Time
	notice                        time.Time
	aggIn, aggOut                 time.Time
}

// compEvents are the per-component event streams recorded by the seams.
type compEvents struct {
	notice, begin, created, endIn, endOut []time.Time
}

// ledger collects journeys and seam events. One mutex guards it; the
// measured runs record only a notice per report here.
type ledger struct {
	mu       sync.Mutex
	journeys []*journey
	byComp   map[string][]*journey
	comp     map[string]*compEvents
	// pair holds aggregator accept windows per component|condition.
	pair    map[string][][2]time.Time
	notices int
	// onNotice, when set before load starts, runs on the watcher
	// goroutine after each notice is recorded (ingest's window refill).
	onNotice func(component string)
}

func newLedger() *ledger {
	return &ledger{
		byComp: make(map[string][]*journey),
		comp:   make(map[string]*compEvents),
		pair:   make(map[string][][2]time.Time),
	}
}

func (l *ledger) events(component string) *compEvents {
	ev := l.comp[component]
	if ev == nil {
		ev = &compEvents{}
		l.comp[component] = ev
	}
	return ev
}

func (l *ledger) add(j *journey) {
	l.mu.Lock()
	l.journeys = append(l.journeys, j)
	l.byComp[j.comp] = append(l.byComp[j.comp], j)
	l.mu.Unlock()
}

func (l *ledger) record(component string, at time.Time, field func(*compEvents) *[]time.Time) {
	l.mu.Lock()
	p := field(l.events(component))
	*p = append(*p, at)
	l.mu.Unlock()
}

func (l *ledger) noticeCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notices
}

// aggAccepted records the aggregator's accept window for one summary.
func (l *ledger) aggAccepted(component, condition string, in, out time.Time) {
	l.mu.Lock()
	key := component + "|" + condition
	l.pair[key] = append(l.pair[key], [2]time.Time{in, out})
	l.mu.Unlock()
}

// resolve copies every seam event onto its journey. It fails when a seam
// saw a different number of events than reports were generated for a
// component — a lost or duplicated notice.
func (l *ledger) resolve(traced, aggregated bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for comp, js := range l.byComp {
		ev := l.events(comp)
		if len(ev.notice) != len(js) {
			return fmt.Errorf("component %s: %d reports generated, %d watch notices", comp, len(js), len(ev.notice))
		}
		if traced && (len(ev.begin) != len(js) || len(ev.created) != len(js) || len(ev.endOut) != len(js)) {
			return fmt.Errorf("component %s: %d reports, traced seams saw %d/%d/%d", comp, len(js), len(ev.begin), len(ev.created), len(ev.endOut))
		}
		perPair := make(map[string]int)
		for i, j := range js {
			j.notice = ev.notice[i]
			if traced {
				j.begin, j.created, j.endIn, j.endOut = ev.begin[i], ev.created[i], ev.endIn[i], ev.endOut[i]
			}
			if aggregated {
				key := j.comp + "|" + j.cond
				k := perPair[key]
				perPair[key]++
				acc := l.pair[key]
				if k >= len(acc) {
					return fmt.Errorf("pair %s: summary %d never accepted by the aggregator", key, k+1)
				}
				j.aggIn, j.aggOut = acc[k][0], acc[k][1]
			}
		}
	}
	return nil
}

// inWindow returns the journeys whose origin lies in [from, to).
func (l *ledger) inWindow(from, to time.Time) []*journey {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*journey
	for _, j := range l.journeys {
		if !j.origin.Before(from) && j.origin.Before(to) {
			out = append(out, j)
		}
	}
	return out
}

// emitter is the proto.Sink a generator hands its reports to (the DC's
// uplink sink on tick, the feeders' on ingest and station). It tags each
// report with the spool sequence the uplink will assign, records its
// origin, keeps the per-DC sequence for the reference check, and forwards
// to the uplink.
type emitter struct {
	led    *ledger
	up     *uplink.Uplink
	dcid   string
	traced bool

	// origin, when set, stamps every report delivered until it changes
	// (tick: the start of the step producing them); zero stamps the
	// delivery time.
	origin time.Time

	// seq counts accepted deliveries; a fresh spool numbers its first
	// report 1, so it is the report's wire sequence.
	seq      uint64
	sent     []*proto.Report
	errors   int
	depthMax int
}

// Deliver implements proto.Sink.
func (e *emitter) Deliver(r *proto.Report) error {
	in := time.Now()
	j := &journey{dcid: e.dcid, boot: e.up.Boot(), comp: r.SensedObjectID, cond: r.MachineConditionID, origin: e.origin, handoff: in}
	if j.origin.IsZero() {
		j.origin = in
	}
	d0 := time.Now()
	err := e.up.Deliver(r)
	d1 := time.Now()
	if err != nil {
		e.errors++
		return err
	}
	e.seq++
	j.seq = e.seq
	e.sent = append(e.sent, r)
	e.led.add(j)
	if p := e.up.Pending(); p > e.depthMax {
		e.depthMax = p
	}
	if e.traced {
		j.emitIn, j.delIn, j.delOut, j.emitOut = in, d0, d1, time.Now()
	}
	return nil
}

// watcher is the station's one Views.Watch subscriber: it timestamps every
// notice into the ledger.
type watcher struct {
	sub  *serving.Subscription
	done chan struct{}
}

// watchBuffer sizes the subscription so the watcher never drops a notice
// while it is descheduled behind two busy load goroutines on two cores:
// ingest fuses a few thousand reports a second, so 8192 covers seconds of
// stall.
const watchBuffer = 8192

func startWatcher(v *serving.Views, led *ledger) *watcher {
	w := &watcher{sub: v.Watch("", watchBuffer), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for n := range w.sub.C {
			at := time.Now()
			led.mu.Lock()
			ev := led.events(n.Component)
			ev.notice = append(ev.notice, at)
			led.notices++
			fn := led.onNotice
			led.mu.Unlock()
			if fn != nil {
				fn(n.Component)
			}
		}
	}()
	return w
}

func (w *watcher) close() {
	w.sub.Close()
	<-w.done
}
