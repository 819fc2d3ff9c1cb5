package main

import (
	"fmt"
	"math/rand"

	"vswapsim/internal/serve"
	"vswapsim/internal/sim"
)

// A workload is a fixed list of jobs per sample, sent by closed-loop
// clients to an in-process vswapsimd. Every sample runs in a fresh process
// with an empty result cache, so the first request for a key is a miss
// (the job simulates) and repeats are hits (the cached bytes are served).
type workload struct {
	name string
	// maxprocs is GOMAXPROCS for the sample processes (0 = the machine's).
	maxprocs int
	// clients is the number of closed-loop clients, each on its own
	// keep-alive connection.
	clients int
	// warm lists the requests simulated during set-up so that the timed
	// jobs that repeat them are cache hits.
	warm []serve.JobRequest
	// plan returns the timed jobs of one sample.
	plan func(seed uint64, sample int) []job
	// touchPages sizes the hyper.touch_resident_ns probe like one of the
	// workload's guests.
	touchPages int
}

// job is one timed request. A hit's document must equal warm[ref] byte
// for byte.
type job struct {
	req  serve.JobRequest
	miss bool
	ref  int
}

// Simulation workload settings. The scales are chosen so that one sample
// takes one to seven seconds on a 2-core x86 host.
const (
	pbzipScale   = 0.25
	clusterScale = 0.0625
	// clusterSeed pins cluster-overcommit's simulation: how many guests
	// are killed or migrated, and so how much is simulated, depends on the
	// seed (allocated bytes vary by 25 % over seeds 1-5), while pbzip2-sweep
	// does the same work at every seed.
	clusterSeed = 42
)

// daemon-jobs settings.
const (
	daemonJobs   = 400    // jobs per sample, fixed so peak_rss_mb is comparable
	daemonMisses = 40     // jobs per sample that simulate
	daemonScale  = 0.0625 // scale of every daemon-jobs request
	daemonVerify = 2      // misses per sample re-simulated in-process and compared
)

var workloads = []*workload{
	{
		name: "pbzip2-sweep", maxprocs: 1, clients: 1,
		plan:       simPlan("fig5", pbzipScale, 0),
		touchPages: 32768, // 512 MB guest at scale 0.25
	},
	{
		name: "cluster-overcommit", maxprocs: 1, clients: 1,
		plan:       simPlan("clusterN", clusterScale, clusterSeed),
		touchPages: 4096, // 256 MB guest at scale 0.0625
	},
	{
		name: "daemon-jobs", clients: 2,
		warm:       daemonHitSet(),
		plan:       daemonPlan,
		touchPages: 8192, // 512 MB fig3 guest at scale 0.0625
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// simPlan is one registry experiment, serial: a single job that
// simulates. It simulates at the workload seed, or at fixed when that is
// nonzero.
func simPlan(id string, scale float64, fixed uint64) func(uint64, int) []job {
	return func(seed uint64, _ int) []job {
		if fixed != 0 {
			seed = fixed
		}
		return []job{{req: serve.JobRequest{ID: id, Seed: seed, Scale: scale, Quick: true, Parallel: 1}, miss: true}}
	}
}

// fig3Scenario holds the text of scenarios/fig3.yaml, read at start-up.
var fig3Scenario string

// daemonHitSet mixes registry ids with the inline fig3 scenario. It does
// not depend on the workload seed, so its documents have fixed
// fingerprints (expect.json).
func daemonHitSet() []serve.JobRequest {
	var set []serve.JobRequest
	for _, id := range []string{"fig3", "fig9", "fig10", "fig12", "tab1", "tab2", "migration"} {
		set = append(set, serve.JobRequest{ID: id, Seed: 42, Scale: daemonScale, Quick: true})
	}
	set = append(set, serve.JobRequest{ID: "fig3", Seed: 7, Scale: daemonScale, Quick: true})
	for _, seed := range []uint64{42, 7} {
		// Scenario is filled in at start-up, once the file is read.
		set = append(set, serve.JobRequest{Seed: seed, Scale: daemonScale, Quick: true})
	}
	return set
}

// daemonPlan draws the sample's job sequence from the workload seed:
// daemonMisses jobs at random positions are misses (fig3 at a seed no
// other job uses), the others hits on uniformly chosen warmed keys.
func daemonPlan(seed uint64, sample int) []job {
	base := sim.DeriveSeed(seed, "daemon-jobs", fmt.Sprint(sample))
	rng := rand.New(rand.NewSource(int64(base)))
	warm := daemonHitSet()
	jobs := make([]job, daemonJobs)
	miss := make(map[int]bool, daemonMisses)
	for _, i := range rng.Perm(daemonJobs)[:daemonMisses] {
		miss[i] = true
	}
	for i := range jobs {
		if miss[i] {
			s := sim.DeriveSeed(base, "miss", fmt.Sprint(i))
			jobs[i] = job{req: serve.JobRequest{ID: "fig3", Seed: s, Scale: daemonScale, Quick: true}, miss: true}
			continue
		}
		k := rng.Intn(len(warm))
		jobs[i] = job{req: withScenario(warm[k]), ref: k}
	}
	return jobs
}

// withScenario fills the inline fig3 scenario into a hit-set request that
// names no registry id.
func withScenario(r serve.JobRequest) serve.JobRequest {
	if r.ID == "" {
		r.Scenario = fig3Scenario
	}
	return r
}

// label names a request's target in failure messages.
func label(r serve.JobRequest) string {
	if r.ID == "" {
		return fmt.Sprintf("scenario fig3.yaml seed %d", r.Seed)
	}
	return fmt.Sprintf("%s seed %d", r.ID, r.Seed)
}
