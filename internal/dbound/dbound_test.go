package dbound

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/vclock"
)

func testConfig(rng *rand.Rand, rounds int) Config {
	return Config{
		Rounds:   rounds,
		TMax:     2 * time.Millisecond,
		Clock:    vclock.NewVirtual(time.Time{}),
		RTT:      func() time.Duration { return time.Millisecond },
		EarlyRTT: time.Millisecond,
		Rand:     rng,
	}
}

func allProtocols() []Protocol {
	return []Protocol{HanckeKuhn{}, BrandsChaum{}, Reid{IDVerifier: "V", IDProver: "P"}}
}

func TestHonestSessionsAccept(t *testing.T) {
	for _, proto := range allProtocols() {
		rng := rand.New(rand.NewSource(1))
		p, c, err := proto.Pair([]byte("secret"), 32, rng)
		if err != nil {
			t.Fatalf("%s: %v", proto.Name(), err)
		}
		res, rounds, err := Run(testConfig(rng, 32), p, c)
		if err != nil {
			t.Fatalf("%s: %v", proto.Name(), err)
		}
		if !res.Accepted {
			t.Fatalf("%s: honest session rejected: %v", proto.Name(), res.Reason)
		}
		if len(rounds) != 32 {
			t.Fatalf("%s: %d rounds", proto.Name(), len(rounds))
		}
		if res.MaxRTT != time.Millisecond {
			t.Fatalf("%s: max RTT %v", proto.Name(), res.MaxRTT)
		}
	}
}

func TestGuessingProverMostlyRejected(t *testing.T) {
	// With n=16 a guesser passes with probability 2^-16; over 200
	// trials we expect ~0 acceptances (allow 1 for slack).
	for _, proto := range []Protocol{HanckeKuhn{}, Reid{}} {
		rng := rand.New(rand.NewSource(3))
		accepted := 0
		for trial := 0; trial < 200; trial++ {
			_, c, _ := proto.Pair([]byte("secret"), 16, rng)
			g := &GuessingProver{Rng: rng}
			res, _, err := Run(testConfig(rng, 16), g, c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted {
				accepted++
			}
		}
		if accepted > 1 {
			t.Fatalf("%s: guesser accepted %d/200", proto.Name(), accepted)
		}
	}
}

func TestGuessingSingleRoundRate(t *testing.T) {
	// n=1: acceptance rate should be ≈1/2.
	rng := rand.New(rand.NewSource(4))
	accepted := 0
	const trials = 3000
	for i := 0; i < trials; i++ {
		_, c, _ := HanckeKuhn{}.Pair([]byte("secret"), 1, rng)
		res, _, err := Run(testConfig(rng, 1), &GuessingProver{Rng: rng}, c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			accepted++
		}
	}
	rate := float64(accepted) / trials
	if math.Abs(rate-0.5) > 0.05 {
		t.Fatalf("single-round guess rate %.3f, want ≈0.5", rate)
	}
}

func TestPreAskEmpiricalMatchesAnalytic(t *testing.T) {
	// Per-round pre-ask success: 3/4 against HK and Reid, 1/2 against
	// Brands-Chaum (transcript signature). Measure with n=2 over many
	// trials: expected acceptance (3/4)^2 = 0.5625 or (1/2)^2 = 0.25.
	const trials = 2000
	for _, proto := range allProtocols() {
		rng := rand.New(rand.NewSource(5))
		accepted := 0
		for i := 0; i < trials; i++ {
			p, c, _ := proto.Pair([]byte("secret"), 2, rng)
			adv := NewPreAskRelay(p, 2, rng)
			res, _, err := Run(testConfig(rng, 2), adv, c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted {
				accepted++
			}
		}
		rate := float64(accepted) / trials
		want := PreAskSuccess(proto, 2)
		if math.Abs(rate-want) > 0.05 {
			t.Errorf("%s: pre-ask rate %.4f, want ≈%.4f", proto.Name(), rate, want)
		}
	}
}

func TestTerroristEmpirical(t *testing.T) {
	const trials = 1000
	for _, proto := range allProtocols() {
		rng := rand.New(rand.NewSource(6))
		accepted := 0
		for i := 0; i < trials; i++ {
			p, c, _ := proto.Pair([]byte("secret"), 2, rng)
			adv, err := NewTerroristAccomplice(p, rng)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := Run(testConfig(rng, 2), adv, c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted {
				accepted++
			}
		}
		rate := float64(accepted) / trials
		want := TerroristSuccess(proto, 2)
		if math.Abs(rate-want) > 0.05 {
			t.Errorf("%s: terrorist rate %.4f, want ≈%.4f", proto.Name(), rate, want)
		}
	}
}

func TestDistanceFraudEmpirical(t *testing.T) {
	const trials = 1500
	for _, proto := range allProtocols() {
		rng := rand.New(rand.NewSource(7))
		accepted := 0
		for i := 0; i < trials; i++ {
			p, c, _ := proto.Pair([]byte("secret"), 2, rng)
			adv, err := NewDistanceFraud(p, rng)
			if err != nil {
				t.Fatal(err)
			}
			// The fraudster is far away: honest RTT would be 10 ms,
			// but early sends collapse to EarlyRTT.
			cfg := testConfig(rng, 2)
			cfg.RTT = func() time.Duration { return 10 * time.Millisecond }
			res, _, err := Run(cfg, adv, c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted {
				accepted++
			}
		}
		rate := float64(accepted) / trials
		want := DistanceFraudSuccess(proto, 2)
		if math.Abs(rate-want) > 0.05 {
			t.Errorf("%s: distance-fraud rate %.4f, want ≈%.4f", proto.Name(), rate, want)
		}
	}
}

func TestResistanceProfile(t *testing.T) {
	if (HanckeKuhn{}).ResistsMafiaPreAsk() || (HanckeKuhn{}).ResistsTerrorist() {
		t.Error("Hancke-Kuhn should resist neither attack")
	}
	if !(BrandsChaum{}).ResistsMafiaPreAsk() || (BrandsChaum{}).ResistsTerrorist() {
		t.Error("Brands-Chaum resists pre-ask only")
	}
	if (Reid{}).ResistsMafiaPreAsk() || !(Reid{}).ResistsTerrorist() {
		t.Error("Reid resists terrorist only")
	}
}

func TestAnalyticProbabilities(t *testing.T) {
	if got := GuessSuccess(10); math.Abs(got-math.Pow(0.5, 10)) > 1e-15 {
		t.Errorf("GuessSuccess(10)=%v", got)
	}
	if got := PreAskSuccess(HanckeKuhn{}, 10); math.Abs(got-math.Pow(0.75, 10)) > 1e-15 {
		t.Errorf("PreAskSuccess(HK,10)=%v", got)
	}
	if got := PreAskSuccess(BrandsChaum{}, 10); math.Abs(got-math.Pow(0.5, 10)) > 1e-15 {
		t.Errorf("PreAskSuccess(BC,10)=%v", got)
	}
	if got := TerroristSuccess(HanckeKuhn{}, 10); got != 1 {
		t.Errorf("TerroristSuccess(HK,10)=%v", got)
	}
	if got := TerroristSuccess(Reid{}, 10); math.Abs(got-math.Pow(0.75, 10)) > 1e-15 {
		t.Errorf("TerroristSuccess(Reid,10)=%v", got)
	}
	if got := DistanceFraudSuccess(BrandsChaum{}, 10); math.Abs(got-math.Pow(0.5, 10)) > 1e-15 {
		t.Errorf("DistanceFraudSuccess(BC,10)=%v", got)
	}
}

func TestTamperedTranscriptRejected(t *testing.T) {
	// Flip a response bit after the fact: every protocol must reject.
	for _, proto := range allProtocols() {
		rng := rand.New(rand.NewSource(8))
		p, c, _ := proto.Pair([]byte("secret"), 8, rng)
		cfg := testConfig(rng, 8)

		// Run honestly, then re-check a tampered transcript.
		nonceV := make([]byte, 16)
		cfg.Rand.Read(nonceV)
		openP, err := p.Init(nonceV)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Begin(nonceV, openP); err != nil {
			t.Fatal(err)
		}
		rounds := make([]RoundRecord, 8)
		for i := range rounds {
			ch := byte(cfg.Rand.Intn(2))
			bit, _, _ := p.Respond(i, ch)
			rounds[i] = RoundRecord{Challenge: ch, Response: bit, RTT: time.Millisecond}
		}
		closing, err := p.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Check(rounds, closing); err != nil {
			t.Fatalf("%s: honest transcript rejected: %v", proto.Name(), err)
		}
		rounds[3].Response ^= 1
		if err := c.Check(rounds, closing); err == nil {
			t.Fatalf("%s: tampered transcript accepted", proto.Name())
		}
	}
}

func TestCheckerRequiresBegin(t *testing.T) {
	for _, proto := range []Protocol{HanckeKuhn{}, Reid{}} {
		rng := rand.New(rand.NewSource(9))
		_, c, _ := proto.Pair([]byte("secret"), 4, rng)
		if err := c.Check(make([]RoundRecord, 4), nil); !errors.Is(err, ErrBadSession) {
			t.Errorf("%s: got %v, want ErrBadSession", proto.Name(), err)
		}
	}
}

func TestBrandsChaumRejectsBadOpening(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	_, c, _ := BrandsChaum{}.Pair(nil, 4, rng)
	if err := c.Begin(make([]byte, 16), make([]byte, 3)); !errors.Is(err, ErrBadClosing) {
		t.Fatalf("short opening: %v", err)
	}
}

func TestBrandsChaumRejectsShortClosing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, c, _ := BrandsChaum{}.Pair(nil, 4, rng)
	nonceV := make([]byte, 16)
	openP, _ := p.Init(nonceV)
	if err := c.Begin(nonceV, openP); err != nil {
		t.Fatal(err)
	}
	if err := c.Check(make([]RoundRecord, 4), []byte{1}); !errors.Is(err, ErrBadClosing) {
		t.Fatalf("short closing: %v", err)
	}
}

func TestRegisterProtocolsRejectUnexpectedClosing(t *testing.T) {
	for _, proto := range []Protocol{HanckeKuhn{}, Reid{}} {
		rng := rand.New(rand.NewSource(12))
		p, c, _ := proto.Pair([]byte("s"), 4, rng)
		nonceV := make([]byte, 16)
		openP, _ := p.Init(nonceV)
		_ = c.Begin(nonceV, openP)
		rounds := make([]RoundRecord, 4)
		for i := range rounds {
			bit, _, _ := p.Respond(i, 0)
			rounds[i] = RoundRecord{Challenge: 0, Response: bit}
		}
		if err := c.Check(rounds, []byte{9}); !errors.Is(err, ErrBadClosing) {
			t.Errorf("%s: spurious closing accepted: %v", proto.Name(), err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p, c, _ := HanckeKuhn{}.Pair([]byte("s"), 4, rng)
	if _, _, err := Run(Config{}, p, c); !errors.Is(err, ErrBadRounds) {
		t.Fatalf("empty config: %v", err)
	}
	cfg := testConfig(rng, 4)
	cfg.Clock = nil
	if _, _, err := Run(cfg, p, c); err == nil {
		t.Fatal("nil clock accepted")
	}
}

func TestPairValidation(t *testing.T) {
	for _, proto := range allProtocols() {
		if _, _, err := proto.Pair([]byte("s"), 0, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadRounds) {
			t.Errorf("%s: zero rounds accepted", proto.Name())
		}
		if _, _, err := proto.Pair([]byte("s"), 4, nil); err == nil {
			t.Errorf("%s: nil rng accepted", proto.Name())
		}
	}
}

func TestAdversariesRejectUnknownProver(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	if _, err := NewTerroristAccomplice(&GuessingProver{Rng: rng}, rng); !errors.Is(err, ErrUnsupportedProver) {
		t.Fatalf("terrorist: %v", err)
	}
	if _, err := NewDistanceFraud(&GuessingProver{Rng: rng}, rng); !errors.Is(err, ErrUnsupportedProver) {
		t.Fatalf("distance fraud: %v", err)
	}
}
