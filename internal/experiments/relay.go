package experiments

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/blockfile"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// deployment is a ready-to-audit simulated GeoProof installation: a
// ProverServer on the prover's node, and the verifier's pool dialing it.
// Set srv.Provider before the first audit.
type deployment struct {
	enc      *por.Encoder
	ef       *por.EncodedFile
	verifier *core.Verifier
	tpa      *core.TPA
	srv      *core.ProverServer
	pool     *core.ProverPool
}

// newDeployment wires owner, verifier, TPA and a prover server into a
// simulated Brisbane installation; close releases it.
func newDeployment(seed int64) (*deployment, error) {
	params := blockfile.Params{BlockSize: 16, ChunkData: 223, ChunkTotal: 255, SegmentBlocks: 5, TagBits: 20}
	enc := por.NewEncoder([]byte("experiment-e6-master")).WithParams(params)
	file := bytes.Repeat([]byte("relay-experiment-data-"), 2000)
	ef, err := enc.Encode("e6-file", file)
	if err != nil {
		return nil, err
	}
	clk := vclock.NewVirtual(time.Time{})
	net := simnet.New(clk, seed)
	signer, err := crypt.NewSigner()
	if err != nil {
		return nil, err
	}
	verifier, err := core.NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, clk)
	if err != nil {
		return nil, err
	}
	net.SetLink("verifier", "prover", lanLinkFor(0.5))
	lis, err := net.Listen("prover")
	if err != nil {
		return nil, err
	}
	tpa, err := core.NewTPA(enc, signer.Public(), core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100}))
	if err != nil {
		return nil, err
	}
	srv := &core.ProverServer{SimulateServiceTime: true}
	go srv.Serve(lis)
	return &deployment{
		enc: enc, ef: ef, verifier: verifier, tpa: tpa, srv: srv,
		pool: &core.ProverPool{Dial: net.Dialer("verifier")},
	}, nil
}

func (d *deployment) close() {
	d.pool.Close()
	d.srv.Close()
}

// storeAt creates a site with the given disk at a position and stores the
// experiment file on it. The encoded file must be produced by the same
// parameters, so we re-encode per call site.
func storeAt(ef *por.EncodedFile, name string, pos geo.Position, d disk.Model, seed int64) *cloud.Site {
	site := cloud.NewSite(cloud.DataCenter{Name: name, Position: pos, Disk: d}, seed)
	site.Store(ef.FileID, ef.Layout, ef.Data)
	return site
}

// audit runs one k-round audit and returns the TPA report.
func (d *deployment) audit(k int) (core.Report, error) {
	req, err := d.tpa.NewRequest(d.ef.FileID, d.ef.Layout, k)
	if err != nil {
		return core.Report{}, err
	}
	runner := core.PooledRunner{Verifier: d.verifier, Addr: "prover", Pool: d.pool}
	st, err := runner.RunAudit(context.Background(), req)
	if err != nil {
		return core.Report{}, err
	}
	return d.tpa.VerifyAudit(req, d.ef.Layout, st), nil
}

// E6Relay reproduces §V-C(b) and Fig. 6: an honest local provider versus
// relay configurations at increasing remote distance (remote site running
// the fast IBM 36Z15), plus the analytic relay bounds.
func E6Relay(seed int64) (Table, error) {
	t := Table{
		ID:     "E6 / §V-C(b), Fig. 6",
		Title:  "Relay attack detection (Δt_max = 16 ms policy)",
		Header: []string{"Configuration", "remote dist", "max RTT", "timing OK", "accepted", "implied bound"},
	}

	// Honest baseline: average disk, local.
	honest, err := newDeployment(seed)
	if err != nil {
		return t, err
	}
	defer honest.close()
	localSite := storeAt(honest.ef, "bne-dc", geo.Brisbane, disk.WD2500JD, seed+1)
	honest.srv.Provider = &cloud.HonestProvider{Site: localSite}
	rep, err := honest.audit(10)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"honest, WD2500JD local", "0 km",
		fmt.Sprintf("%.2f ms", float64(rep.MaxRTT)/1e6),
		fmt.Sprintf("%v", rep.TimingOK),
		fmt.Sprintf("%v", rep.Accepted),
		km(rep.ImpliedMaxDistanceKm),
	})

	// Relay sweep: remote DC with fast disks at increasing distance.
	var crossover float64 = -1
	for _, distKm := range []float64{50, 100, 200, 360, 500, 720, 1000} {
		dep, err := newDeployment(seed + int64(distKm))
		if err != nil {
			return t, err
		}
		defer dep.close()
		remotePos := geo.Position{LatDeg: geo.Brisbane.LatDeg - distKm/111.0, LonDeg: geo.Brisbane.LonDeg}
		remote := storeAt(dep.ef, "remote-dc", remotePos, disk.IBM36Z15, seed+2)
		relay := cloud.NewRelayProvider(
			cloud.DataCenter{Name: "bne-front", Position: geo.Brisbane, Disk: disk.WD2500JD},
			remote,
			simnet.InternetLink{DistanceKm: distKm, LastMile: 500 * time.Microsecond, PathStretch: 1.0},
			seed+3,
		)
		dep.srv.Provider = relay
		rep, err := dep.audit(10)
		if err != nil {
			return t, err
		}
		if !rep.Accepted && crossover < 0 {
			crossover = distKm
		}
		t.Rows = append(t.Rows, []string{
			"relay -> IBM 36Z15 remote",
			km(distKm),
			fmt.Sprintf("%.2f ms", float64(rep.MaxRTT)/1e6),
			fmt.Sprintf("%v", rep.TimingOK),
			fmt.Sprintf("%v", rep.Accepted),
			km(rep.ImpliedMaxDistanceKm),
		})
	}

	paperBound := core.PaperRelayBoundKm(disk.IBM36Z15.LookupLatency(512), geo.SpeedInternetKmPerMs)
	budgetBound := honest.tpa.MaxUndetectableRelayKm(disk.IBM36Z15.LookupLatency(512), time.Millisecond)
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper's own arithmetic: 4/9 c x 5.406 ms / 2 = %.0f km (paper: 360 km)", paperBound),
		fmt.Sprintf("budget accounting (Δt_max - LAN - remote look-up): %.0f km of relay slack", budgetBound),
	)
	if crossover > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("first rejected relay distance in sweep: %.0f km", crossover))
	} else {
		t.Notes = append(t.Notes, "no relay rejected in sweep (unexpected)")
	}
	return t, nil
}
