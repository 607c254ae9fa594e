package workload

import (
	"math"
	"math/rand"
	"strings"

	"kvaccel/internal/vclock"
)

// Distribution selects how mixed-workload request keys are drawn.
type Distribution int

const (
	// DistUniform draws keys uniformly over the keyspace.
	DistUniform Distribution = iota
	// DistZipfian draws keys from a scrambled zipfian: a small hot set
	// absorbs most requests, spread across the keyspace by hashing so the
	// hot keys are not physically adjacent.
	DistZipfian
	// DistLatest skews toward the most recently inserted keys (YCSB's
	// "latest" distribution, workload D).
	DistLatest
)

func (d Distribution) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistZipfian:
		return "zipfian"
	case DistLatest:
		return "latest"
	}
	return "unknown"
}

// MixSpec is a YCSB-style operation mix: fractions must sum to 1.
type MixSpec struct {
	Name      string
	ReadPct   float64
	UpdatePct float64
	InsertPct float64
	ScanPct   float64
	RMWPct    float64 // read-modify-write (YCSB F)

	Dist       Distribution
	ZipfTheta  float64 // zipfian skew; 0 picks the YCSB default 0.99
	MaxScanLen int     // scan length upper bound; 0 picks 100
}

// Mix returns the named YCSB core-workload preset.
func Mix(name string) (MixSpec, bool) {
	switch strings.ToLower(name) {
	case "ycsb-a", "a":
		return MixSpec{Name: "ycsb-a", ReadPct: 0.5, UpdatePct: 0.5, Dist: DistZipfian}, true
	case "ycsb-b", "b":
		return MixSpec{Name: "ycsb-b", ReadPct: 0.95, UpdatePct: 0.05, Dist: DistZipfian}, true
	case "ycsb-c", "c":
		return MixSpec{Name: "ycsb-c", ReadPct: 1.0, Dist: DistZipfian}, true
	case "ycsb-d", "d":
		return MixSpec{Name: "ycsb-d", ReadPct: 0.95, InsertPct: 0.05, Dist: DistLatest}, true
	case "ycsb-e", "e":
		return MixSpec{Name: "ycsb-e", ScanPct: 0.95, InsertPct: 0.05, Dist: DistZipfian}, true
	case "ycsb-f", "f":
		return MixSpec{Name: "ycsb-f", ReadPct: 0.5, RMWPct: 0.5, Dist: DistZipfian}, true
	}
	return MixSpec{}, false
}

// MixNames lists the preset names for CLI help.
func MixNames() []string {
	return []string{"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f"}
}

// WithReadPct returns the spec with its read fraction forced to p and
// the remaining fractions rescaled proportionally to keep the mix
// summing to 1.
func (m MixSpec) WithReadPct(p float64) MixSpec {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rest := m.UpdatePct + m.InsertPct + m.ScanPct + m.RMWPct
	if rest <= 0 {
		// Pure-read spec: route the write share to updates.
		m.ReadPct, m.UpdatePct = p, 1-p
		return m
	}
	scale := (1 - p) / rest
	m.ReadPct = p
	m.UpdatePct *= scale
	m.InsertPct *= scale
	m.ScanPct *= scale
	m.RMWPct *= scale
	return m
}

// EffectiveTheta is the zipfian skew the generator actually uses: the
// YCSB default 0.99 when the spec leaves ZipfTheta unset.
func (m MixSpec) EffectiveTheta() float64 {
	if m.ZipfTheta <= 0 {
		return 0.99
	}
	return m.ZipfTheta
}

// zipfGen is the classic YCSB/Gray bounded zipfian generator over ranks
// [0, n): rank 0 is the hottest. Ranks are scrambled into key indexes by
// the caller so hot keys spread over the keyspace.
type zipfGen struct {
	n                 int
	alpha, zetan, eta float64
	// rank1 bounds u*zetan for rank 1: 1 + 0.5^theta, i.e. zeta(2, theta).
	rank1 float64
}

func zetaSum(n int, theta float64) float64 {
	var z float64
	for i := 1; i <= n; i++ {
		z += 1 / math.Pow(float64(i), theta)
	}
	return z
}

func newZipf(n int, theta float64) *zipfGen {
	if theta <= 0 {
		theta = 0.99
	}
	z := &zipfGen{n: n}
	z.zetan = zetaSum(n, theta)
	z.alpha = 1 / (1 - theta)
	z.rank1 = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zetaSum(2, theta)/z.zetan)
	return z
}

// next draws a rank in [0, n).
func (z *zipfGen) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// scramble spreads rank r over [0, n) with an FNV-1a step, so the hot
// set is not a contiguous key prefix (which would all land in one
// SST/shard and overstate cache locality).
func scramble(r, n int) int {
	h := uint64(r) ^ 0xcbf29ce484222325
	h *= 0x100000001b3
	h ^= h >> 33
	return int(h % uint64(n))
}

// MixedState is the cross-client shared state of a mixed run: the
// insert frontier (inserts append past the preloaded keyspace; the
// latest distribution reads against it).
type MixedState struct {
	frontier int64
}

// NewMixedState starts the insert frontier after the preloaded keys.
func NewMixedState(preloaded int) *MixedState {
	st := &MixedState{}
	st.frontier = int64(preloaded)
	return st
}

// Inserted returns how many keys exist (preload + inserts so far).
func (st *MixedState) Inserted() int64 { return st.frontier }

// opKind is one YCSB operation a mix draws.
type opKind int

const (
	opRead opKind = iota
	opUpdate
	opInsert
	opScan
	opRMW // read-modify-write: a read, then an update of the key read
)

// request is one YCSB request as drawn: its kind, the key number it
// reads or writes, and a scan's length.
type request struct {
	kind    opKind
	key     int
	scanLen int
}

// mixGen draws YCSB requests from a mix: the kind from the cumulative
// op thresholds, the key per the distribution or, for an insert, past
// the insert frontier, and a scan's length. It holds no RNG: each client
// draws with its own, so what it draws depends on its seed alone (and,
// for inserts and the latest distribution, on the frontier it shares).
type mixGen struct {
	dist     Distribution
	keySpace int
	zipf     *zipfGen
	state    *MixedState
	maxScan  int

	cRead, cUpdate, cInsert, cScan float64 // cumulative op thresholds
}

func newMixGen(spec MixSpec, keySpace int, state *MixedState) *mixGen {
	g := &mixGen{
		dist:     spec.Dist,
		keySpace: keySpace,
		zipf:     newZipf(keySpace, spec.ZipfTheta),
		state:    state,
		maxScan:  spec.MaxScanLen,
	}
	if g.maxScan <= 0 {
		g.maxScan = 100
	}
	g.cRead = spec.ReadPct
	g.cUpdate = g.cRead + spec.UpdatePct
	g.cInsert = g.cUpdate + spec.InsertPct
	g.cScan = g.cInsert + spec.ScanPct
	return g
}

// next draws one request, in this order: the kind, then the key (an
// insert takes the frontier's and advances it), then a scan's length.
func (g *mixGen) next(rng *rand.Rand) request {
	var q request
	switch u := rng.Float64(); {
	case u < g.cRead:
		q.kind = opRead
	case u < g.cUpdate:
		q.kind = opUpdate
	case u < g.cInsert:
		q.kind = opInsert
	case u < g.cScan:
		q.kind = opScan
	default:
		q.kind = opRMW
	}
	if q.kind == opInsert {
		q.key = int(g.state.frontier)
		g.state.frontier++
		return q
	}
	q.key = g.key(rng)
	if q.kind == opScan {
		q.scanLen = rng.Intn(g.maxScan) + 1
	}
	return q
}

// key draws a request key per the distribution.
func (g *mixGen) key(rng *rand.Rand) int {
	switch g.dist {
	case DistZipfian:
		return scramble(g.zipf.next(rng), g.keySpace)
	case DistLatest:
		// Offset back from the newest key by a zipfian rank: rank 0 is
		// the most recent insert.
		latest := int(g.state.Inserted()) - 1
		return max(latest-g.zipf.next(rng), 0)
	default:
		return rng.Intn(g.keySpace)
	}
}

// RunMixed drives one client of a YCSB-style mixed workload on the
// calling runner until cfg.Duration elapses. Multiple clients may share
// eng, state, and rec; give each a distinct cfg.Seed.
func RunMixed(r *vclock.Runner, eng Engine, cfg Config, spec MixSpec, state *MixedState, rec *Recorder) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := newMixGen(spec, cfg.KeySpace, state)
	var buf scratch
	start := r.Now()
	for r.Now().Sub(start) < cfg.Duration {
		q := gen.next(rng)
		n := q.key
		switch q.kind {
		case opRead:
			t0 := r.Now()
			if _, _, err := eng.Get(r, buf.key(n)); err != nil {
				return err
			}
			rec.ReadLatency.Observe(r.Now().Sub(t0))
			rec.reads++
		case opUpdate, opInsert:
			t0 := r.Now()
			if err := eng.Put(r, buf.key(n), buf.value(n, cfg.ValueSize)); err != nil {
				return err
			}
			rec.WriteLatency.Observe(r.Now().Sub(t0))
			rec.writes++
		case opScan:
			it := eng.NewIterator(r)
			t0 := r.Now()
			it.Seek(Key(n))
			for i := 0; i < q.scanLen && it.Valid(); i++ {
				it.Next()
			}
			rec.ScanLatency.Observe(r.Now().Sub(t0))
			it.Close()
			rec.scans++
		case opRMW:
			t0 := r.Now()
			if _, _, err := eng.Get(r, buf.key(n)); err != nil {
				return err
			}
			rec.ReadLatency.Observe(r.Now().Sub(t0))
			rec.reads++
			t1 := r.Now()
			if err := eng.Put(r, buf.key(n), buf.value(n, cfg.ValueSize)); err != nil {
				return err
			}
			rec.WriteLatency.Observe(r.Now().Sub(t1))
			rec.writes++
		}
	}
	return nil
}
