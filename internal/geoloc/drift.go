package geoloc

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/simnet"
)

// DriftThresholdKm is the deviation beyond which DetectDrift flags a
// prover: 500 km, the worst-case localization error the paper cites for
// delay-based schemes — deviations beyond it cannot be explained by
// scheme error alone.
const DriftThresholdKm = 500

// DriftReport is the verdict of a multilateration cross-check on a
// prover's claimed position: where the landmarks think the prover
// actually is, how far that is from the claim, and whether the deviation
// exceeds DriftThresholdKm.
//
// This is the geoloc-side complement of GeoProof's timing bound. A prover
// that drifts out of its claimed region while keeping its verifier device
// local still passes every timed audit (the data really is near the
// verifier) — only external landmark probes of the *site* can notice that
// the site itself moved. The detector inherits geoloc's limits: a target
// adding delay can push its estimate away from the truth, so a drift flag
// is trustworthy but an absent flag is not proof of residency (§III-B).
type DriftReport struct {
	Estimate    Estimate
	Claimed     geo.Position
	DeviationKm float64
	Drifted     bool
}

// String renders the verdict compactly for traces.
func (r DriftReport) String() string {
	state := "within"
	if r.Drifted {
		state = "DRIFTED"
	}
	return fmt.Sprintf("%s: est (%.2f,%.2f) deviates %.0f km from claim (%.2f,%.2f), threshold %d km",
		state, r.Estimate.Position.LatDeg, r.Estimate.Position.LonDeg,
		r.DeviationKm, r.Claimed.LatDeg, r.Claimed.LonDeg, DriftThresholdKm)
}

// DetectDrift multilaterates the target from landmark probes and flags it
// when the estimate lands more than DriftThresholdKm from the claimed
// position. The scheme is TBG least-squares calibrated to the Internet
// model (two last-mile overheads, default path stretch), the most
// accurate of the §III-B schemes over the continental landmark set.
func DetectDrift(claimed geo.Position, probes []Probe) (DriftReport, error) {
	tbg := &TBG{
		Overhead:    2 * simnet.DefaultLastMile,
		PathStretch: simnet.DefaultPathStretch,
		GridStepKm:  20,
	}
	est, err := tbg.Locate(probes)
	if err != nil {
		return DriftReport{}, fmt.Errorf("geoloc: drift multilateration: %w", err)
	}
	dev := est.Position.DistanceKm(claimed)
	return DriftReport{
		Estimate:    est,
		Claimed:     claimed,
		DeviationKm: dev,
		Drifted:     dev > DriftThresholdKm,
	}, nil
}
