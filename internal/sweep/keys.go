package sweep

import (
	"encoding/json"
	"strconv"
	"sync"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/store"
)

// keySchema versions the key derivation; bump it when the hashed
// payload's meaning changes so stale cache entries cannot be mistaken
// for current ones. It is independent of artifact.SchemaVersion: the
// artifact schema can move without invalidating result keys.
const keySchema = 1

// KeySpace is one configuration's content addresses: job result keys,
// anchor keys, trained-profile artifact keys and the configuration's
// own key. The configuration is encoded once, when the key space is
// built; every key under it then hashes only its per-job tail (see
// store.KeySpace). Engines build one in New; callers that key many jobs
// under one configuration outside an engine (a served sweep, a merge, a
// shard split) build one and reuse it. A KeySpace is safe for
// concurrent use.
type KeySpace struct {
	// cfg is the configuration as given: policies resolve dependencies
	// and shard anchors under it.
	cfg core.Config
	// canon is cfg with its topology name canonicalized: jobs
	// canonicalize against it, and enc, its JSON, is what every key
	// embeds. The default topology encodes as absent, so pre-topology
	// cache entries keep their keys, while non-default topologies hash
	// into the key space.
	canon   core.Config
	enc     []byte
	results *store.KeySpace

	profOnce sync.Once
	profiles *artifact.KeySpace
}

// A result key hashes the JSON of (schema, config, job); its key-space
// prefix is that object up to the job's value.
var (
	resultKeyHead = []byte(`{"schema":` + strconv.Itoa(keySchema) + `,"config":`)
	resultKeyJob  = []byte(`,"job":`)
)

// NewKeySpace returns cfg's key space.
func NewKeySpace(cfg core.Config) *KeySpace {
	canon := cfg
	canon.Sim.Topology = arch.CanonicalTopologyName(cfg.Sim.Topology)
	enc, err := json.Marshal(canon)
	if err != nil {
		// core.Config is plain data; this cannot fail.
		panic("sweep: key encoding: " + err.Error())
	}
	return &KeySpace{
		cfg:     cfg,
		canon:   canon,
		enc:     enc,
		results: store.NewKeySpace(resultKeyHead, enc, resultKeyJob),
	}
}

// Config returns the configuration the key space was built from.
func (k *KeySpace) Config() core.Config { return k.cfg }

// ConfigKey content-addresses the configuration itself: the hex SHA-256
// of exactly the canonical config encoding every result key embeds.
// Execution knobs (core.Config.TrainWorkers, Observe) are excluded from
// that encoding, so configurations differing only in them share a key.
func (k *KeySpace) ConfigKey() string { return store.SumKey(k.enc) }

// Key returns the content-addressed cache key of a job: the hex SHA-256
// of the canonical JSON encoding of (schema, config, job), with the job
// canonicalized by its policy first. encoding/json serializes struct
// fields in declaration order and the job tail uses the merge encoder,
// which reproduces json.Marshal byte for byte, so the key is
// deterministic across runs and processes of the same build.
func (k *KeySpace) Key(j Job) string {
	e := mergedEncoder{buf: make([]byte, 0, 96)}
	if err := e.job(j.canonical(k.canon)); err != nil {
		panic("sweep: key encoding: " + err.Error())
	}
	e.buf = append(e.buf, '}')
	return k.results.Key(e.buf)
}

// Key returns a job's cache key under cfg: NewKeySpace(cfg).Key(job).
// Callers keying many jobs under one configuration should build the key
// space once.
func Key(cfg core.Config, job Job) string {
	return NewKeySpace(cfg).Key(job)
}

// ArtifactKey returns the artifact-store key of spec's trained profile
// under the key space's configuration.
func (k *KeySpace) ArtifactKey(spec ProfileSpec) string {
	// The training configuration differs from the result one, so its
	// key space is built on first use.
	k.profOnce.Do(func() { k.profiles = artifact.NewKeySpace(k.cfg) })
	return spec.artifactKey(k.profiles)
}

// AnchorKey returns the key a job is placement-assigned by: its
// policy's shard anchor followed transitively (job → dependency job →
// trained profile's artifact key), or the job's own key when it has no
// anchor. It is the grouping unit shared by static sharding (Shard) and
// fleet lease assignment: all jobs with equal anchor keys resolve (or
// feed) the same training, so a scheduler that never splits an anchor
// group trains each profile exactly once, and a cold fleet executes
// each training, and each shared dependency run, exactly once.
func (k *KeySpace) AnchorKey(j Job) string {
	// The anchor chain is at most (job -> dependency job -> artifact);
	// the depth bound guards against a misregistered policy cycle.
	for depth := 0; depth < 8; depth++ {
		p, ok := PolicyByName(j.Policy)
		if !ok {
			break
		}
		d := p.ShardAnchor(k.cfg, j)
		if d == nil {
			break
		}
		if d.Profile != nil {
			return k.ArtifactKey(*d.Profile)
		}
		j = *d.Job
	}
	return k.Key(j)
}

// shardOf maps a key to a shard index in [0, shards).
func shardOf(key string, shards int) int {
	v, err := strconv.ParseUint(key[:16], 16, 64)
	if err != nil {
		panic("sweep: malformed key " + key)
	}
	return int(v % uint64(shards))
}

// Shard returns the subset of jobs owned by shard index out of shards
// total, assigned by stable anchor-key hash: every job belongs to
// exactly one shard, and the assignment depends only on (config, job),
// never on slice order. shards <= 1 returns jobs unchanged.
func Shard(cfg core.Config, jobs []Job, shards, index int) []Job {
	if shards <= 1 {
		return jobs
	}
	ks := NewKeySpace(cfg)
	var out []Job
	for _, j := range jobs {
		if shardOf(ks.AnchorKey(j), shards) == index {
			out = append(out, j)
		}
	}
	return out
}
