package exp

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// profiles is the committed record of the profiled scenarios at
// profilesScale: one "scenario metric value" line per metric, sorted.
const (
	profiles      = "testdata/profiles.txt"
	profilesScale = 0.25
)

// profileScenario is one profiled configuration: by default a tree build
// driven through BuildTree, or an arbitrary drive when run is set.
type profileScenario struct {
	name string
	gen  func(scale float64) (*data.Dataset, error)
	cfg  func(ds *data.Dataset) mw.Config
	opt  func(ds *data.Dataset) dtree.Options
	// run, when non-nil, replaces the default BuildTree drive; it must
	// route all simulated work through an engine attached to env so the
	// profile sees exactly one proc.
	run func(env *Env, ds *data.Dataset) error
}

func profileScenarios() []profileScenario {
	census := func(scale float64) (*data.Dataset, error) {
		return censusData(datagen.CensusConfig{Rows: scaled(8000, scale), Seed: 61})
	}
	shallow := func(ds *data.Dataset) dtree.Options {
		return dtree.Options{MaxDepth: 6, MinRows: int64(ds.N() / 100)}
	}
	return []profileScenario{
		{
			name: "scan-seq",
			gen:  census,
			cfg: func(*data.Dataset) mw.Config {
				return mw.Config{Staging: mw.StageNone}
			},
			opt: shallow,
		},
		{
			name: "staged",
			gen:  census,
			cfg: func(ds *data.Dataset) mw.Config {
				return mw.Config{Staging: mw.StageFileAndMemory, Memory: ds.Bytes() / 2}
			},
			opt: shallow,
		},
		{
			name: "fallback",
			gen: func(scale float64) (*data.Dataset, error) {
				return censusData(datagen.CensusConfig{Rows: scaled(3000, scale), Seed: 62})
			},
			// A budget under two CC entries pushes every node to the SQL
			// fallback, pinning the fallback arms' cost.
			cfg: func(*data.Dataset) mw.Config {
				return mw.Config{Memory: 64, Staging: mw.StageNone}
			},
			opt: func(*data.Dataset) dtree.Options { return dtree.Options{MaxDepth: 3, MinRows: 40} },
		},
		{
			name: "columnar-clustered",
			gen: func(scale float64) (*data.Dataset, error) {
				return clusteredData(datagen.ClusteredConfig{
					Rows: scaled(8000, scale), Seed: 63, Regions: 6, Attrs: 7,
				})
			},
			cfg: func(*data.Dataset) mw.Config {
				return mw.Config{Staging: mw.StageNone}
			},
			opt: shallow,
		},
		{
			name: "score-batch",
			gen: func(scale float64) (*data.Dataset, error) {
				return censusData(datagen.CensusConfig{Rows: scaled(16000, scale), Seed: 64})
			},
			// The vectorized in-engine scoring operator: pins the scoring
			// kernel's block/probe cost the way the build
			// scenarios pin the counting pipeline.
			run: func(env *Env, ds *data.Dataset) error {
				tree, err := dtree.BuildInMemory(ds, dtree.Options{MaxDepth: 6})
				if err != nil {
					return err
				}
				model, err := dtree.Compile(tree, "score")
				if err != nil {
					return err
				}
				meter := sim.NewDefaultMeter()
				eng := engine.New(meter, 0)
				if _, err := engine.NewServer(eng, "cases", ds); err != nil {
					return err
				}
				env.attach(meter, eng)
				if err := eng.RegisterModel(model); err != nil {
					return err
				}
				tbl, err := eng.Table("cases")
				if err != nil {
					return err
				}
				_, err = eng.ScoreTable(tbl, model)
				return err
			},
		},
	}
}

// profileLines profiles every scenario at the given scale and flattens each
// into "scenario metric value" lines — total_ns, spans, excl_ns/<category>
// and ctr/<counter> — sorted.
func profileLines(scale float64) (string, error) {
	var lines []string
	for _, sc := range profileScenarios() {
		ds, err := sc.gen(scale)
		if err != nil {
			return "", fmt.Errorf("%s: generate: %w", sc.name, err)
		}
		col := obs.NewTrace()
		env := &Env{Obs: col, Label: "perf-" + sc.name}
		if sc.run != nil {
			err = sc.run(env, ds)
		} else {
			_, err = BuildTree(env, ds, sc.cfg(ds), sc.opt(ds))
		}
		if err != nil {
			return "", fmt.Errorf("%s: %w", sc.name, err)
		}
		p := profile.Compute(col)
		if len(p.Procs) != 1 {
			return "", fmt.Errorf("%s: profiled %d procs, want 1", sc.name, len(p.Procs))
		}
		proc := p.Procs[0]
		add := func(metric string, v int64) {
			lines = append(lines, fmt.Sprintf("%s %s %d", sc.name, metric, v))
		}
		add("total_ns", proc.TotalNS)
		add("spans", int64(proc.Spans))
		for _, r := range proc.ByCat {
			add("excl_ns/"+r.Key, r.ExclNS)
		}
		for k, v := range proc.Counters { //repolint:ordered the lines are sorted below
			add("ctr/"+k, v)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n", nil
}

// TestProfilesMatchRecord pins the virtual-time profile of five scenarios —
// an unstaged scan build, a staged build, an all-fallback build, a columnar
// build over clustered data and a scoring pass — metric for metric:
// total time, span count, exclusive time per category and every counter. Any
// move, up or down, fails, at GOMAXPROCS 1 and 2 alike. If the move is
// intended, the test leaves the new record in a temp file and prints the cp
// command that accepts it.
func TestProfilesMatchRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("profiled builds take a few seconds")
	}
	want, err := os.ReadFile(profiles)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		got, err := profileLines(profilesScale)
		if err != nil {
			t.Fatal(err)
		}
		diff := firstDiff(string(want), got)
		if diff == "" {
			continue
		}
		f, err := os.CreateTemp("", "profiles-*.txt")
		if err != nil {
			t.Fatal(err)
		}
		_, werr := f.WriteString(got)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			t.Fatal(werr)
		}
		t.Fatalf("GOMAXPROCS %d: the profiled scenarios no longer match %s (%s); if the change is intended, accept it with: cp %s internal/exp/%s",
			procs, profiles, diff, f.Name(), profiles)
	}
}
