package dbound

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// This file implements the adversaries of §III-A: naive guessing,
// mafia-fraud pre-ask relays (Fig. 1's man-in-the-middle), terrorist
// accomplices and distance fraud. Each adversary satisfies Prover so the
// standard Run engine measures its empirical success rate, which the
// tests compare against the analytic values.

// GuessingProver knows nothing: random nonce, random bits, no closing.
type GuessingProver struct {
	Rng *rand.Rand
}

var _ Prover = (*GuessingProver)(nil)

// Init returns a random 16-byte nonce.
func (g *GuessingProver) Init(nonceV []byte) ([]byte, error) {
	n := make([]byte, 16)
	g.Rng.Read(n)
	return n, nil
}

// Respond guesses a uniform bit.
func (g *GuessingProver) Respond(i int, c byte) (byte, time.Duration, bool) {
	return byte(g.Rng.Intn(2)), 0, false
}

// Finalize returns no closing message.
func (g *GuessingProver) Finalize() ([]byte, error) { return nil, nil }

// PreAskRelay mounts mafia fraud: it relays the untimed initialisation to
// the real (far) prover, pre-asks it with a guessed challenge string
// before the timed phase, then answers locally. Against register
// protocols (Hancke-Kuhn, Reid) each round succeeds with probability 3/4;
// against Brands-Chaum the signature over the prover's own transcript
// exposes any challenge-string mismatch.
type PreAskRelay struct {
	real    Prover
	rng     *rand.Rand
	n       int
	guesses []byte
	answers []byte
	asked   bool
}

var _ Prover = (*PreAskRelay)(nil)

// NewPreAskRelay wraps the genuine prover of an n-round session.
func NewPreAskRelay(real Prover, n int, rng *rand.Rand) *PreAskRelay {
	return &PreAskRelay{real: real, rng: rng, n: n}
}

// Init relays the verifier nonce to the real prover (not timed).
func (a *PreAskRelay) Init(nonceV []byte) ([]byte, error) {
	return a.real.Init(nonceV)
}

// preAsk runs the guessed challenge string against the real prover once.
func (a *PreAskRelay) preAsk() {
	a.guesses = make([]byte, a.n)
	a.answers = make([]byte, a.n)
	for i := 0; i < a.n; i++ {
		a.guesses[i] = byte(a.rng.Intn(2))
		bit, _, _ := a.real.Respond(i, a.guesses[i])
		a.answers[i] = bit
	}
	a.asked = true
}

// Respond answers from the pre-asked table when the guess matched, and
// guesses otherwise. The attacker sits next to the verifier, so no extra
// delay is added.
func (a *PreAskRelay) Respond(i int, c byte) (byte, time.Duration, bool) {
	if !a.asked {
		a.preAsk()
	}
	if a.guesses[i] == c&1 {
		return a.answers[i], 0, false
	}
	return byte(a.rng.Intn(2)), 0, false
}

// Finalize relays to the real prover, whose transcript view is the
// guessed string — fatal against transcript-signing protocols.
func (a *PreAskRelay) Finalize() ([]byte, error) {
	if !a.asked {
		a.preAsk()
	}
	return a.real.Finalize()
}

// Terrorist accomplice: the prover colludes and hands over whatever
// material it is willing to leak. The achievable power differs per
// protocol, which is exactly the point of §III-A's protocol lineage.

// ErrUnsupportedProver is returned when an adversary cannot operate
// against the given prover implementation.
var ErrUnsupportedProver = errors.New("dbound: unsupported prover type for this adversary")

// TerroristAccomplice is a close accomplice of a colluding far prover.
type TerroristAccomplice struct {
	real Prover
	rng  *rand.Rand

	// respond answers round i/challenge c after collusion setup.
	respond func(i int, c byte) byte
	// finalize produces the closing with the colluder's help.
	finalize func(seen []RoundRecord) ([]byte, error)
	seen     []RoundRecord
}

var _ Prover = (*TerroristAccomplice)(nil)

// NewTerroristAccomplice builds the strongest accomplice the colluding
// prover can equip without leaking its long-term key:
//   - Hancke-Kuhn: both registers (key-independent) → perfect responses.
//   - Brands-Chaum: m plus a promise to sign the accomplice's transcript
//     afterwards (the closing is untimed) → perfect.
//   - Reid: only the e register — handing over s too would surrender the
//     key — so challenge bit 1 forces a guess.
func NewTerroristAccomplice(real Prover, rng *rand.Rand) (*TerroristAccomplice, error) {
	a := &TerroristAccomplice{real: real, rng: rng}
	switch p := real.(type) {
	case *hkProver:
		a.respond = func(i int, c byte) byte { return p.state.respond(i, c) }
		a.finalize = func([]RoundRecord) ([]byte, error) { return nil, nil }
	case *bcProver:
		a.respond = func(i int, c byte) byte { return (c & 1) ^ p.m[i] }
		a.finalize = func(seen []RoundRecord) ([]byte, error) {
			p.seen = seen // colluder signs the accomplice's transcript
			return p.Finalize()
		}
	case *reidProver:
		a.respond = func(i int, c byte) byte {
			if c&1 == 0 {
				return p.state.e[i]
			}
			return byte(rng.Intn(2)) // s register withheld
		}
		a.finalize = func([]RoundRecord) ([]byte, error) { return nil, nil }
	default:
		return nil, ErrUnsupportedProver
	}
	return a, nil
}

// Init relays initialisation to the colluding prover.
func (a *TerroristAccomplice) Init(nonceV []byte) ([]byte, error) {
	return a.real.Init(nonceV)
}

// Respond uses the leaked material.
func (a *TerroristAccomplice) Respond(i int, c byte) (byte, time.Duration, bool) {
	bit := a.respond(i, c)
	a.seen = append(a.seen, RoundRecord{Challenge: c & 1, Response: bit})
	return bit, 0, false
}

// Finalize may involve the colluder (untimed).
func (a *TerroristAccomplice) Finalize() ([]byte, error) {
	return a.finalize(a.seen)
}

// DistanceFraud is a legitimate but far-away prover that launches responses
// before the challenge arrives so the measured RTT collapses. Register
// protocols let it pre-send the correct bit whenever both registers agree
// (probability 1/2, else guess → 3/4 per round); Brands-Chaum's response
// depends on the challenge bit, leaving a pure 1/2 guess.
type DistanceFraud struct {
	real Prover
	rng  *rand.Rand

	early func(i int) byte
	seen  []RoundRecord
}

var _ Prover = (*DistanceFraud)(nil)

// NewDistanceFraud wraps an honest prover with the early-send strategy.
func NewDistanceFraud(real Prover, rng *rand.Rand) (*DistanceFraud, error) {
	a := &DistanceFraud{real: real, rng: rng}
	switch p := real.(type) {
	case *hkProver:
		a.early = func(i int) byte {
			if p.state.r0[i] == p.state.r1[i] {
				return p.state.r0[i]
			}
			return byte(rng.Intn(2))
		}
	case *reidProver:
		a.early = func(i int) byte {
			if p.state.e[i] == p.state.s[i] {
				return p.state.e[i]
			}
			return byte(rng.Intn(2))
		}
	case *bcProver:
		a.early = func(i int) byte { return byte(rng.Intn(2)) }
	default:
		return nil, ErrUnsupportedProver
	}
	return a, nil
}

// Init initialises the underlying honest prover (registers must exist
// before the early strategy can consult them).
func (a *DistanceFraud) Init(nonceV []byte) ([]byte, error) {
	return a.real.Init(nonceV)
}

// Respond always sends early; the engine records the collapsed RTT.
func (a *DistanceFraud) Respond(i int, c byte) (byte, time.Duration, bool) {
	bit := a.early(i)
	a.seen = append(a.seen, RoundRecord{Challenge: c & 1, Response: bit})
	// Keep Brands-Chaum's prover transcript in sync so its closing
	// signature covers what was actually sent.
	if p, ok := a.real.(*bcProver); ok {
		p.seen = a.seen
	}
	return bit, 0, true
}

// Finalize delegates to the honest prover.
func (a *DistanceFraud) Finalize() ([]byte, error) { return a.real.Finalize() }

// Analytic success probabilities for n-round sessions.

// GuessSuccess is (1/2)^n: every response guessed.
func GuessSuccess(n int) float64 { return math.Pow(0.5, float64(n)) }

// GuessSuccessAgainst refines GuessSuccess per protocol: against
// Brands-Chaum a secretless guesser must also forge the commitment
// opening and the transcript signature, so its success is effectively
// zero; register protocols leave the plain (1/2)^n.
func GuessSuccessAgainst(p Protocol, n int) float64 {
	if _, ok := p.(BrandsChaum); ok {
		return 0
	}
	return GuessSuccess(n)
}

// PreAskSuccess is (3/4)^n against register protocols and (1/2)^n against
// transcript-signing protocols.
func PreAskSuccess(p Protocol, n int) float64 {
	if p.ResistsMafiaPreAsk() {
		return math.Pow(0.5, float64(n))
	}
	return math.Pow(0.75, float64(n))
}

// TerroristSuccess is 1 for protocols whose round material is
// key-independent (or whose colluder can finish the protocol untimed) and
// (3/4)^n for Reid-style key-entangled registers.
func TerroristSuccess(p Protocol, n int) float64 {
	if p.ResistsTerrorist() {
		return math.Pow(0.75, float64(n))
	}
	return 1
}

// DistanceFraudSuccess is (3/4)^n for register protocols and (1/2)^n for
// challenge-dependent responses.
func DistanceFraudSuccess(p Protocol, n int) float64 {
	switch p.(type) {
	case BrandsChaum:
		return math.Pow(0.5, float64(n))
	default:
		return math.Pow(0.75, float64(n))
	}
}
