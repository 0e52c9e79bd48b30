package testnet

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/simnet"
)

// lanLink is the on-site path between a prover and its co-located
// verifier device: a short switched LAN, the paper's deployment model.
var lanLink = simnet.LANLink{
	DistanceKm: 0.5,
	Switches:   3,
	PerSwitch:  30 * time.Microsecond,
	Base:       100 * time.Microsecond,
}

// seedFor derives an independent deterministic stream seed from the
// scenario seed and a purpose-qualified name.
func seedFor(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// member is one instantiated prover: its group's behavior made concrete
// as a site, a provider personality and a co-located verifier device,
// each on its own node of the simulated network.
type member struct {
	name  string
	group ProverGroup
	idx   int

	claimedCity string
	claimed     geo.Position
	// truePos is where the backing store actually is (== claimed for
	// behaviors that keep the data on site).
	truePos geo.Position

	site *cloud.Site
	// signer is the member's verifier device's key.
	signer *crypt.Signer
	// pool is the verifier device's connection pool to the site.
	pool *core.ProverPool
	spec core.ProverSpec

	departed bool
}

// vnode names the co-located verifier device of the named member.
func vnode(member string) string { return "v:" + member }

// tpaNode is the one TPA auditing the fleet through every member's
// device.
const tpaNode = "tpa"

// buildMembers expands the spec's prover groups into concrete members,
// resolving cities and shared collusion stores. Sites are created here;
// network wiring and registration happen in world.wireMember once tenant
// placement is known.
func buildMembers(spec Spec) ([]*member, error) {
	cities := Cities()
	var members []*member
	for _, g := range spec.Provers {
		// One shared backing store per colluding group: every member
		// serves the same bytes from the same disks at TrueCity.
		var shared *cloud.Site
		if g.Behavior == BehaviorCollude {
			shared = cloud.NewSite(cloud.DataCenter{
				Name:     g.Name + "-shared",
				Position: cities[g.TrueCity],
				Disk:     disk.WD2500JD,
			}, seedFor(spec.Seed, "site:"+g.Name))
		}
		for i := 0; i < g.Count; i++ {
			m := &member{
				name:        memberName(g.Name, i),
				group:       g,
				idx:         i,
				claimedCity: g.claimedCity(i),
			}
			m.claimed = cities[m.claimedCity]
			m.truePos = m.claimed
			if g.TrueCity != "" {
				m.truePos = cities[g.TrueCity]
			}
			switch g.Behavior {
			case BehaviorCollude:
				m.site = shared
			default:
				// The site sits wherever the data actually is: the claimed
				// city for on-site behaviors, TrueCity for relay and drift.
				m.site = cloud.NewSite(cloud.DataCenter{
					Name:     m.name,
					Position: m.truePos,
					Disk:     disk.WD2500JD,
				}, seedFor(spec.Seed, "site:"+m.name))
			}
			members = append(members, m)
		}
	}
	return members, nil
}

// isRelayFront reports whether the member's timed path detours to a
// remote store: relay behavior always, collusion for members not at the
// shared store's city.
func (m *member) isRelayFront() bool {
	switch m.group.Behavior {
	case BehaviorRelay:
		return true
	case BehaviorCollude:
		return m.claimedCity != m.group.TrueCity
	}
	return false
}

// provider builds the member's serving personality.
func (m *member) provider(seed int64) (cloud.Provider, error) {
	if m.isRelayFront() {
		// Jitter-free link: the relay penalty is deterministic.
		link := simnet.InternetLink{
			DistanceKm: m.claimed.DistanceKm(m.truePos),
			LastMile:   simnet.DefaultLastMile,
		}
		front := cloud.DataCenter{
			Name:     m.name + "-front",
			Position: m.claimed,
			Disk:     disk.WD2500JD,
		}
		return cloud.NewRelayProvider(front, m.site, link, seedFor(seed, "relay:"+m.name)), nil
	}
	switch m.group.Behavior {
	case BehaviorHonest, BehaviorCollude, BehaviorDrift, BehaviorCorrupt, BehaviorFlaky:
		return &cloud.HonestProvider{Site: m.site}, nil
	}
	return nil, fmt.Errorf("testnet: member %s: unhandled behavior %q", m.name, m.group.Behavior)
}

// receiver builds the member's tamper-proof GPS device. Drifting provers
// spoof the claimed city while the device really sits with the moved
// site; everyone else reports the truth (which for relays IS the claimed
// site — the device stays put, only the data leaves).
func (m *member) receiver() *gps.Receiver {
	if m.group.Behavior == BehaviorDrift {
		spoof := m.claimed
		return &gps.Receiver{True: m.truePos, Spoof: &spoof}
	}
	return &gps.Receiver{True: m.claimed}
}
