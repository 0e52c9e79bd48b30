package testnet

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/geoloc"
	"repro/internal/por"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// world is the running state of one scenario: the simulated network with
// a ProverServer on every member's node and a VerifierServer on its
// device's node, the TPA's connection pool dialing the devices, the
// tenant population, the instantiated members and the fleet controller,
// plus every observation stream that ends up in the trace.
type world struct {
	spec    Spec
	clk     *vclock.Virtual
	net     *simnet.Network
	pool    *core.ProverPool
	closers []io.Closer
	policy  core.Policy

	members []*member
	byName  map[string]*member
	tenants []*worldTenant
	ctl     *core.FleetController
	tracer  *telemetry.AuditTracer

	transitions []string
	churnLog    []string

	cellMu sync.Mutex
	cells  map[cellKey]*Cell
}

// worldTenant is one tenant's file and the seeded nonce stream that
// every one of its per-device TPAs draws challenges from.
type worldTenant struct {
	name  string
	enc   *por.Encoder
	ef    *por.EncodedFile
	nonce io.Reader
}

type cellKey struct{ tenant, prover string }

// tickStamp renders the current virtual offset for trace lines.
func (w *world) tickStamp() string {
	return fmt.Sprintf("[%5ds]", int(w.clk.Now().Unix()-virtualStart.Unix()))
}

// classify maps a scheduler verdict to a matrix column. Rejection causes
// are checked in severity order over the TPA's broken-out report: a
// transcript whose timed rounds all failed is a rounds problem even
// though its MAC and timing checks are vacuously false too.
func classify(v core.Verdict) func(*Cell) {
	switch v.Outcome {
	case core.OutcomeAccepted:
		return func(c *Cell) { c.Accepted++ }
	case core.OutcomeTimeout:
		return func(c *Cell) { c.Timeout++ }
	case core.OutcomeError:
		return func(c *Cell) { c.Error++ }
	}
	r := v.Report
	switch {
	case !r.SignatureOK:
		return func(c *Cell) { c.OtherReject++ }
	case r.SegmentsBad > 0:
		return func(c *Cell) { c.MACReject++ }
	case r.SegmentsOK+r.SegmentsBad == 0:
		return func(c *Cell) { c.RoundsReject++ }
	case !r.TimingOK:
		return func(c *Cell) { c.TimingReject++ }
	case !r.PositionOK:
		return func(c *Cell) { c.PositionReject++ }
	case r.FailedRounds > 0:
		return func(c *Cell) { c.RoundsReject++ }
	default:
		return func(c *Cell) { c.OtherReject++ }
	}
}

// Run executes one scenario deterministically and diffs the outcome
// against the spec's expectations. Everything observable — health
// transitions, the verdict matrix, the drift phase's results, the final
// fleet status with the ledger's per-prover totals — lands in
// Result.Trace; two calls with the same spec produce byte-identical
// traces.
func Run(spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	w, err := newWorld(spec)
	if err != nil {
		return nil, err
	}
	defer w.close()

	// The scenario proper: scripted churn, one reconcile tick, one
	// virtual second — repeated. All audit time is charged to the same
	// virtual clock, so a saturated fleet visibly stretches its
	// own audit cadence, exactly like a saturated TPA would.
	for tick := 0; tick < spec.Ticks; tick++ {
		if err := w.applyChurn(tick); err != nil {
			return nil, err
		}
		w.ctl.Tick()
		w.clk.Advance(time.Second)
	}

	res := &Result{Spec: spec}
	driftTrace, flagged, err := w.runDriftPhase(res)
	if err != nil {
		return nil, err
	}
	w.buildTrace(res, driftTrace)
	w.checkExpectations(res, flagged)
	return res, nil
}

// newWorld builds a defaulted spec's world up to its first tick: the
// network, the tenants, the members and the fleet controller with every
// member registered. The caller closes it.
func newWorld(spec Spec) (w *world, err error) {
	w = &world{
		spec:   spec,
		clk:    vclock.NewVirtual(virtualStart),
		byName: map[string]*member{},
		cells:  map[cellKey]*Cell{},
	}
	w.net = simnet.New(w.clk, spec.Seed)
	// The TPA reaches every prover through the member's verifier device.
	w.pool = &core.ProverPool{Dial: w.net.Dialer(tpaNode)}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if err := w.setupTenants(); err != nil {
		return nil, err
	}
	if w.members, err = buildMembers(spec); err != nil {
		return nil, err
	}
	for _, m := range w.members {
		w.byName[m.name] = m
	}
	w.setupController()
	if err := w.placeAndRegister(); err != nil {
		return nil, err
	}
	return w, nil
}

// close stops the controller, then every connection and server.
func (w *world) close() {
	if w.ctl != nil {
		w.ctl.Close()
	}
	w.pool.Close()
	for _, c := range w.closers {
		c.Close()
	}
}

// Replay runs the scenario twice with identical inputs and verifies the
// traces are byte-identical — the orchestrator-level determinism check.
func Replay(spec Spec) (*Result, error) {
	a, err := Run(spec)
	if err != nil {
		return nil, err
	}
	b, err := Run(spec)
	if err != nil {
		return nil, err
	}
	if err := AssertReplay(a.Trace, b.Trace); err != nil {
		return a, err
	}
	return a, nil
}

// setupTenants encodes every tenant's file and seeds its nonce stream,
// so challenge indices replay.
func (w *world) setupTenants() error {
	w.policy = core.DefaultPolicy(cloud.SLA{Center: australiaCentroid, RadiusKm: w.spec.SLARadiusKm})
	if w.spec.TMaxMs > 0 {
		w.policy.TMax = time.Duration(w.spec.TMaxMs * float64(time.Millisecond))
	}
	w.policy.MaxFailedRounds = w.spec.MaxFailedRounds
	for t := 0; t < w.spec.Tenants; t++ {
		name := fmt.Sprintf("tenant-%04d", t)
		enc := por.NewEncoder([]byte("master-" + name)).WithConcurrency(1)
		file := make([]byte, w.spec.FileBytes)
		for i := range file {
			file[i] = byte(7*t + i)
		}
		ef, err := enc.Encode(name+"/data", file)
		if err != nil {
			return err
		}
		w.tenants = append(w.tenants, &worldTenant{name: name, enc: enc, ef: ef,
			nonce: rand.New(rand.NewSource(seedFor(w.spec.Seed, "nonce:"+name)))})
	}
	return nil
}

// deviceTPA builds the tenant's TPA for one member's device: it trusts
// that device's key alone, and draws from the tenant's one nonce stream,
// so the challenges do not depend on which replica is audited.
func (w *world) deviceTPA(tn *worldTenant, m *member) (*core.TPA, error) {
	tpa, err := core.NewTPA(tn.enc, m.signer.Public(), w.policy)
	if err != nil {
		return nil, err
	}
	return tpa.WithNonceReader(tn.nonce), nil
}

// setupController builds the fleet controller in deterministic mode:
// synchronous ticks, one worker, no wall-clock deadlines, the scenario's
// virtual clock and seed everywhere.
func (w *world) setupController() {
	// Tracing rides along in every scenario on the virtual clock: the
	// replay-determinism tests then double as proof that instrumentation
	// never perturbs a run's observable timing.
	w.tracer = telemetry.NewAuditTracer(64, w.clk)
	w.ctl = core.NewFleetController(core.FleetConfig{
		Scheduler: core.SchedulerConfig{
			Workers: 1,
			Timeout: 0,
			Clock:   w.clk,
			Tracer:  w.tracer,
			OnVerdict: func(v core.Verdict) {
				fold := classify(v)
				// The matrix is per tenant, not per tenant's device TPA.
				tenant, _, _ := strings.Cut(v.Task.Tenant, "@")
				w.cellMu.Lock()
				key := cellKey{tenant: tenant, prover: v.Task.Prover}
				c, ok := w.cells[key]
				if !ok {
					c = &Cell{}
					w.cells[key] = c
				}
				fold(c)
				w.cellMu.Unlock()
			},
		},
		AuditPeriod: time.Duration(w.spec.AuditPeriodSec) * time.Second,
		AuditJitter: w.spec.AuditJitter,
		EvictAfter:  w.spec.EvictAfter,
		Clock:       w.clk,
		Seed:        w.spec.Seed,
		Synchronous: true,
		OnTransition: func(prover string, from, to core.Health, reason string) {
			w.transitions = append(w.transitions,
				fmt.Sprintf("%s %s: %s -> %s (%s)", w.tickStamp(), prover, from, to, reason))
		},
	})
}

// placeAndRegister assigns each tenant's file to Replicas provers round-
// robin, stores the bytes on the owning sites, applies at-rest corruption
// and wires + registers every member. Each member's device signs with its
// own key, and each tenant audits it as "<tenant>@<member>" through a TPA
// that trusts that key alone, as geoverify names its tenants per device.
func (w *world) placeAndRegister() error {
	for _, m := range w.members {
		var err error
		if m.signer, err = crypt.NewSigner(); err != nil {
			return err
		}
	}
	n := len(w.members)
	tasksOf := make(map[string][]core.AuditTask)
	stored := map[*cloud.Site]map[string]bool{}
	for t, tn := range w.tenants {
		for r := 0; r < w.spec.Replicas; r++ {
			m := w.members[(t*w.spec.Replicas+r)%n]
			tpa, err := w.deviceTPA(tn, m)
			if err != nil {
				return err
			}
			tenant := tn.name + "@" + m.name
			w.ctl.RegisterTenant(tenant, tpa)
			if stored[m.site] == nil {
				stored[m.site] = map[string]bool{}
			}
			if !stored[m.site][tn.ef.FileID] {
				m.site.Store(tn.ef.FileID, tn.ef.Layout, tn.ef.Data)
				stored[m.site][tn.ef.FileID] = true
			}
			tasksOf[m.name] = append(tasksOf[m.name], core.AuditTask{
				Tenant: tenant, FileID: tn.ef.FileID, Layout: tn.ef.Layout, K: w.spec.Rounds,
			})
		}
	}
	for _, m := range w.members {
		if m.group.Behavior != BehaviorCorrupt {
			continue
		}
		fraction := m.group.CorruptFraction
		if fraction <= 0 {
			fraction = 1.0
		}
		for _, task := range tasksOf[m.name] {
			if _, err := m.site.CorruptRandomSegments(task.FileID, fraction,
				seedFor(w.spec.Seed, "corrupt:"+m.name+":"+task.FileID)); err != nil {
				return err
			}
		}
	}
	for _, m := range w.members {
		if err := w.wireMember(m, tasksOf[m.name]); err != nil {
			return err
		}
	}
	return nil
}

// wireMember puts the member's site and its verifier device on the
// simulated network, starts the site's prover server and the device's
// verifier server, and registers the member with the fleet controller:
// each audit rides the TPA's pool to the device, which times its rounds
// over its own pool to the prover, as geoverify and geoverifierd do over
// TCP.
func (w *world) wireMember(m *member, tasks []core.AuditTask) error {
	provider, err := m.provider(w.spec.Seed)
	if err != nil {
		return err
	}
	if m.group.Behavior == BehaviorFlaky && m.group.LossPct > 0 {
		rng := rand.New(rand.NewSource(seedFor(w.spec.Seed, "loss:"+m.name)))
		provider = &cloud.LossyProvider{Provider: provider, P: m.group.LossPct / 100, Rand: rng}
	}
	// The verifier device is co-located with the *claimed* site over a
	// short LAN — for drifting provers it moved with the data, which is
	// exactly why their timed audits keep passing.
	dev := vnode(m.name)
	w.net.SetLink(dev, m.name, lanLink)
	// The TPA's leg is untimed: it draws no jitter and moves no clock.
	w.net.SetLink(tpaNode, dev, simnet.Fixed(0))
	lis, err := w.net.Listen(m.name)
	if err != nil {
		return err
	}
	srv := &core.ProverServer{Provider: provider, SimulateServiceTime: true}
	go srv.Serve(lis)
	w.closers = append(w.closers, srv)
	verifier, err := core.NewVerifier(m.signer, m.receiver(), w.clk)
	if err != nil {
		return err
	}
	if lis, err = w.net.Listen(dev); err != nil {
		return err
	}
	m.pool = &core.ProverPool{Dial: w.net.Dialer(dev)}
	vsrv := &core.VerifierServer{Runner: &core.PooledRunner{Verifier: verifier, Addr: m.name, Pool: m.pool}}
	go vsrv.Serve(lis)
	w.closers = append(w.closers, vsrv, m.pool)
	m.spec = core.ProverSpec{
		Runner: core.DeviceRunner{Pool: w.pool, Addr: dev},
		Tasks:  tasks,
	}
	return w.ctl.Register(m.name, m.spec)
}

// applyChurn executes every scripted event due at the tick, in spec
// order.
func (w *world) applyChurn(tick int) error {
	for _, ev := range w.spec.Churn {
		if ev.AtTick != tick {
			continue
		}
		m, ok := w.byName[ev.Target]
		if !ok {
			return fmt.Errorf("testnet: churn targets unknown prover %q", ev.Target)
		}
		switch ev.Action {
		case "kill":
			// The reset reaches the device's warm connection's reader
			// later, on its own goroutine; evicting it now makes the next
			// round dial, and be refused, however the goroutines are
			// scheduled.
			w.net.SetDown(m.name, true)
			m.pool.Evict(m.name)
		case "restore":
			w.net.SetDown(m.name, false)
		case "leave":
			if err := w.ctl.Deregister(m.name, true); err != nil {
				return err
			}
			m.departed = true
		case "join":
			if !m.departed {
				return fmt.Errorf("testnet: churn join of %q which never left", ev.Target)
			}
			w.net.SetDown(m.name, false)
			if err := w.ctl.Register(m.name, m.spec); err != nil {
				return err
			}
			m.departed = false
		}
		w.churnLog = append(w.churnLog, fmt.Sprintf("%s %s %s", w.tickStamp(), ev.Action, ev.Target))
	}
	return nil
}

// driftJitter is the per-probe jitter on every landmark link.
const driftJitter = time.Millisecond

// runDriftPhase pings every still-registered prover's site from the
// continental landmarks over the scenario's own network, multilaterates
// the site from those round trips and flags deviations from the claim.
// Each landmark is a node joined to the member's node by an Internet
// link as long as the landmark's distance to where the site really is;
// the pings draw their jitter from the network's seeded stream and
// advance its clock. Returns trace lines and the per-prover flags.
func (w *world) runDriftPhase(res *Result) ([]string, map[string]bool, error) {
	if !w.spec.Drift {
		return nil, nil, nil
	}
	landmarks := geoloc.AustralianLandmarks()
	var lines []string
	flagged := map[string]bool{}
	for _, m := range w.members {
		if m.departed {
			continue
		}
		probes := make([]geoloc.Probe, len(landmarks))
		for i, l := range landmarks {
			node := "lm:" + l.Name
			w.net.SetLink(node, m.name, simnet.InternetLink{
				DistanceKm: l.Position.DistanceKm(m.truePos),
				LastMile:   simnet.DefaultLastMile,
				Jitter:     driftJitter,
			})
			rtt, err := w.net.Ping(node, m.name)
			if err != nil {
				return nil, nil, err
			}
			probes[i] = geoloc.Probe{Landmark: l, RTT: rtt}
		}
		rep, err := geoloc.DetectDrift(m.claimed, probes)
		if err != nil {
			return nil, nil, err
		}
		flagged[m.name] = rep.Drifted
		if rep.Drifted {
			res.Drifted = append(res.Drifted, m.name)
		}
		lines = append(lines, "  "+m.name+" "+rep.String())
	}
	return lines, flagged, nil
}

// aggCell sums the verdict matrix over one prover.
func (w *world) aggCell(prover string) Cell {
	w.cellMu.Lock()
	defer w.cellMu.Unlock()
	var agg Cell
	for k, c := range w.cells {
		if k.prover == prover {
			agg.add(*c)
		}
	}
	return agg
}

// buildTrace assembles the full deterministic observable record.
func (w *world) buildTrace(res *Result, driftTrace []string) {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s seed=%d provers=%d tenants=%d ticks=%d\n",
		w.spec.Name, w.spec.Seed, len(w.members), len(w.tenants), w.spec.Ticks)

	b.WriteString("churn:\n")
	for _, l := range w.churnLog {
		b.WriteString("  " + l + "\n")
	}
	b.WriteString("transitions:\n")
	for _, l := range w.transitions {
		b.WriteString("  " + l + "\n")
	}

	b.WriteString("matrix:\n")
	w.cellMu.Lock()
	keys := make([]cellKey, 0, len(w.cells))
	for k := range w.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tenant != keys[j].tenant {
			return keys[i].tenant < keys[j].tenant
		}
		return keys[i].prover < keys[j].prover
	})
	for _, k := range keys {
		c := *w.cells[k]
		fmt.Fprintf(&b, "  %s x %s: %s\n", k.tenant, k.prover, c)
		res.Accepted += c.Accepted
		res.Timeouts += c.Timeout
		res.Errors += c.Error
		res.Rejected += c.total() - c.Accepted - c.Timeout - c.Error
	}
	w.cellMu.Unlock()

	b.WriteString("prover totals:\n")
	for _, m := range w.members {
		fmt.Fprintf(&b, "  %s: %s\n", m.name, w.aggCell(m.name))
	}

	if len(driftTrace) > 0 {
		b.WriteString("drift:\n")
		for _, l := range driftTrace {
			b.WriteString(l + "\n")
		}
	}

	b.WriteString("status:\n")
	status, err := json.Marshal(w.ctl.Status())
	if err != nil {
		status = []byte("marshal error: " + err.Error())
	}
	b.Write(status)
	b.WriteString("\n")

	res.Trace = b.String()
	res.Hash = TraceHash(res.Trace)
}

// healthOf returns the member's final status, "gone" once deregistered.
func (w *world) healthOf(name string) string {
	for _, p := range w.ctl.Status().Provers {
		if p.Name == name {
			return p.Health
		}
	}
	return "gone"
}

// pathOf extracts the member's "from>to" transition steps.
func (w *world) pathOf(name string) []string {
	var path []string
	for _, tr := range w.transitions {
		// "[  12s] name: from -> to (reason)"
		_, rest, ok := strings.Cut(tr, "] ")
		if !ok || !strings.HasPrefix(rest, name+": ") {
			continue
		}
		from, rest2, _ := strings.Cut(strings.TrimPrefix(rest, name+": "), " -> ")
		to, _, _ := strings.Cut(rest2, " (")
		path = append(path, from+">"+to)
	}
	return path
}

// checkExpectations diffs the run against the spec's declared outcome.
func (w *world) checkExpectations(res *Result, flagged map[string]bool) {
	fail := func(format string, args ...any) {
		res.Diff = append(res.Diff, fmt.Sprintf(format, args...))
	}

	for _, gname := range sortedGroupNames(w.spec.Expect.Groups) {
		ge := w.spec.Expect.Groups[gname]
		var groupTotal, groupAccepted int
		for _, m := range w.members {
			if m.group.Name != gname {
				continue
			}
			agg := w.aggCell(m.name)
			groupTotal += agg.total()
			groupAccepted += agg.Accepted
			w.checkVerdict(fail, ge, m, agg)

			if ge.FinalHealth != "" {
				want := ge.FinalHealth
				if m.departed {
					want = "gone"
				}
				if got := w.healthOf(m.name); got != want {
					fail("group %s: %s final health %s, want %s", gname, m.name, got, want)
				}
			}
			path := w.pathOf(m.name)
			if ge.Stable && len(path) > 0 {
				fail("group %s: %s expected stable but walked %v", gname, m.name, path)
			}
			if len(ge.HealthPath) > 0 {
				if len(path) < len(ge.HealthPath) {
					fail("group %s: %s walked %v, want prefix %v", gname, m.name, path, ge.HealthPath)
				} else {
					for i, step := range ge.HealthPath {
						if path[i] != step {
							fail("group %s: %s walked %v, want prefix %v", gname, m.name, path, ge.HealthPath)
							break
						}
					}
				}
			}
			if w.spec.Drift {
				if got, want := flagged[m.name], ge.Drift; !m.departed && got != want {
					fail("group %s: %s drift flag %v, want %v", gname, m.name, got, want)
				}
			}
			if !m.departed && agg.total() < w.spec.Expect.MinAudits {
				fail("group %s: %s has %d audits, want ≥ %d", gname, m.name, agg.total(), w.spec.Expect.MinAudits)
			}
		}
		if groupTotal > 0 {
			rate := float64(groupAccepted) / float64(groupTotal)
			if ge.MinAcceptRate > 0 && rate < ge.MinAcceptRate {
				fail("group %s: accept rate %.3f below %.3f", gname, rate, ge.MinAcceptRate)
			}
			if ge.MaxAcceptRate > 0 && rate > ge.MaxAcceptRate {
				fail("group %s: accept rate %.3f above %.3f", gname, rate, ge.MaxAcceptRate)
			}
		}
	}
}

// checkVerdict enforces the group's declared verdict class on one
// member's aggregated cell.
func (w *world) checkVerdict(fail func(string, ...any), ge GroupExpect, m *member, agg Cell) {
	gname := m.group.Name
	pure := func(kind string, want int) {
		if bad := agg.total() - want; bad != 0 {
			fail("group %s: %s expected only %s but has %s", gname, m.name, kind, agg)
		}
	}
	switch ge.Verdict {
	case "accept":
		pure("accepts", agg.Accepted)
		if agg.Accepted == 0 && !m.departed {
			fail("group %s: %s has no accepted audits", gname, m.name)
		}
	case "timing-reject":
		pure("timing rejects", agg.TimingReject)
	case "mac-reject":
		pure("MAC rejects", agg.MACReject)
	case "rounds-reject":
		pure("rounds rejects", agg.RoundsReject)
	case "collude":
		if m.isRelayFront() {
			pure("timing rejects", agg.TimingReject)
		} else {
			pure("accepts", agg.Accepted)
		}
	}
}
