package socialnet

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// linearScreen is the reference screener World.Screen must agree with bit
// for bit: one pass over every account pointer testing each predicate and
// Selector.Matches, matches in world order, then the same partial
// Fisher–Yates draw.
func linearScreen(w *World, q ScreenQuery, now time.Time, rng *rand.Rand) []*Account {
	if q.Count <= 0 {
		return nil
	}
	tol := q.Tolerance
	if tol <= 0 {
		tol = DefaultTolerance
	}
	window := q.ActiveWindow
	if window <= 0 {
		window = 24 * time.Hour
	}
	var matches []*Account
	for _, a := range w.accounts {
		if a.Suspended {
			continue
		}
		if _, excluded := q.Exclude[a.ID]; excluded {
			continue
		}
		if q.ActiveOnly && !a.Active(now, window) {
			continue
		}
		if q.MaxFriendFollowerRatio > 0 &&
			a.FriendFollowerRatio() > q.MaxFriendFollowerRatio {
			continue
		}
		if !q.Selector.Matches(a, now, tol) {
			continue
		}
		matches = append(matches, a)
	}
	if len(matches) <= q.Count {
		return matches
	}
	for i := 0; i < q.Count; i++ {
		j := i + rng.Intn(len(matches)-i)
		matches[i], matches[j] = matches[j], matches[i]
	}
	return matches[:q.Count]
}

// screenSelectors returns every selector kind: each numeric attribute at
// a value some account holds at now, at zero and far above any account;
// every hashtag category including HashtagNone; every trend state; and
// random.
func screenSelectors(w *World, now time.Time, rng *rand.Rand) []Selector {
	var out []Selector
	for _, attr := range ProfileAttributes {
		held := attr.Value(w.accounts[rng.Intn(len(w.accounts))], now)
		for _, v := range []float64{held, 0, 1e9} {
			out = append(out, Selector{Attr: attr, Value: v})
		}
	}
	for _, c := range append([]HashtagCategory{HashtagNone}, HashtagCategories...) {
		out = append(out, Selector{Attr: AttrHashtag, Category: c})
	}
	for _, s := range TrendStates {
		out = append(out, Selector{Attr: AttrTrend, Trend: s})
	}
	return append(out, Selector{Attr: AttrRandom})
}

// screenQueries crosses the selectors with every query option: Count 0,
// below and at or above the match count; default and custom tolerance;
// ActiveOnly with the default and a 3 h window; the ratio bound; and an
// exclusion set.
func screenQueries(w *World, now time.Time, rng *rand.Rand) []ScreenQuery {
	exclude := make(map[AccountID]struct{})
	for _, a := range w.accounts {
		if rng.Intn(3) == 0 {
			exclude[a.ID] = struct{}{}
		}
	}
	type activeOpt struct {
		only   bool
		window time.Duration
	}
	var out []ScreenQuery
	for _, sel := range screenSelectors(w, now, rng) {
		for _, count := range []int{0, 3, len(w.accounts)} {
			for _, tol := range []float64{0, 0.1} {
				for _, act := range []activeOpt{{}, {only: true}, {only: true, window: 3 * time.Hour}} {
					for _, ratio := range []float64{0, 10} {
						for _, ex := range []map[AccountID]struct{}{nil, exclude} {
							out = append(out, ScreenQuery{
								Selector:               sel,
								Count:                  count,
								Tolerance:              tol,
								ActiveOnly:             act.only,
								ActiveWindow:           act.window,
								Exclude:                ex,
								MaxFriendFollowerRatio: ratio,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// assertScreenMatchesOracle screens q through World.Screen and the linear
// oracle from equal rng states and fails unless both return the same
// accounts in the same order and leave the rng streams in step.
func assertScreenMatchesOracle(t *testing.T, w *World, q ScreenQuery, now time.Time, seed int64) []*Account {
	t.Helper()
	gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got := w.Screen(q, now, gotRng)
	want := linearScreen(w, q, now, wantRng)
	if len(got) != len(want) {
		t.Fatalf("%+v: Screen returned %d accounts, oracle %d", q, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%+v: account %d is %d, oracle %d", q, i, got[i].ID, want[i].ID)
		}
	}
	if gotRng.Int63() != wantRng.Int63() {
		t.Fatalf("%+v: rng streams diverged after screening", q)
	}
	return got
}

func screenTestWorld(t *testing.T, seed int64) (*World, *Engine) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumAccounts = 800
	cfg.OrganicTweetsPerHour = 300
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, NewEngine(w)
}

// TestScreenMatchesLinearOracle checks every selector kind and query
// option against the linear scan, on several worlds and engine hours.
func TestScreenMatchesLinearOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		w, e := screenTestWorld(t, seed)
		for _, hours := range []int{0, 3, 10} {
			e.RunHours(hours - e.Hour())
			t.Run(fmt.Sprintf("seed%d/hour%d", seed, hours), func(t *testing.T) {
				now := e.Now()
				rng := rand.New(rand.NewSource(seed * 31))
				sampled, whole := 0, 0
				for i, q := range screenQueries(w, now, rng) {
					got := assertScreenMatchesOracle(t, w, q, now, int64(i))
					switch {
					case q.Count == len(w.accounts) && len(got) > 0:
						whole++
					case q.Count > 0 && len(got) == q.Count:
						all := q
						all.Count = len(w.accounts)
						if len(linearScreen(w, all, now, nil)) > q.Count {
							sampled++
						}
					}
				}
				if sampled == 0 || whole == 0 {
					t.Fatalf("degenerate cases: %d sampled, %d returned whole", sampled, whole)
				}
			})
		}
	}
}

// TestScreenSeesWorldEpochChanges screens, mutates the world through each
// call that moves the epoch, and screens again at the same instant: the
// second result must be the oracle's over the mutated world, and no
// snapshot may outlive the epoch it was built in.
func TestScreenSeesWorldEpochChanges(t *testing.T) {
	mutations := []struct {
		name string
		do   func(t *testing.T, w *World, e *Engine)
	}{
		{"RunHours", func(_ *testing.T, _ *World, e *Engine) { e.RunHours(1) }},
		{"AddAccount", func(_ *testing.T, w *World, _ *Engine) {
			w.AddAccount(&Account{FriendsCount: 5, FollowersCount: 5, CreatedAt: w.start})
		}},
		{"SpawnSpammer", func(_ *testing.T, w *World, e *Engine) { w.SpawnSpammer(e.Now()) }},
		{"AdvanceSuspensions", func(t *testing.T, w *World, _ *Engine) {
			if w.AdvanceSuspensions(5000, rand.New(rand.NewSource(3))) == 0 {
				t.Fatal("AdvanceSuspensions suspended nobody")
			}
		}},
	}
	queries := []ScreenQuery{
		{Selector: Selector{Attr: AttrRandom}, Count: 1 << 20},
		{Selector: Selector{Attr: AttrRandom}, Count: 40, ActiveOnly: true},
		{Selector: Selector{Attr: AttrStatuses, Value: 400}, Count: 1 << 20},
		{Selector: Selector{Attr: AttrFriendFollowerRatio, Value: 1}, Count: 1 << 20},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			w, e := screenTestWorld(t, 5)
			// Churn would register accounts during RunHours, which
			// moves the epoch on its own.
			w.cfg.SpammerChurn = false
			e.RunHours(2)
			now := e.Now()
			for i, q := range queries {
				assertScreenMatchesOracle(t, w, q, now, int64(i))
			}
			m.do(t, w, e)
			if w.snap != nil {
				t.Fatal("screening snapshot outlived its world epoch")
			}
			for i, q := range queries {
				assertScreenMatchesOracle(t, w, q, now, int64(i))
			}
		})
	}
}

// TestScreenConcurrent screens one quiescent world from several
// goroutines at one instant; run under -race it checks the shared
// snapshot is built and read safely.
func TestScreenConcurrent(t *testing.T) {
	w, e := screenTestWorld(t, 9)
	e.RunHours(2)
	now := e.Now()
	queries := screenQueries(w, now, rand.New(rand.NewSource(4)))[:400]
	want := make([][]*Account, len(queries))
	for i, q := range queries {
		want[i] = linearScreen(w, q, now, rand.New(rand.NewSource(int64(i))))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(queries); i += 4 {
				got := w.Screen(queries[i], now, rand.New(rand.NewSource(int64(i))))
				if fmt.Sprint(got) != fmt.Sprint(want[i]) {
					t.Errorf("query %d: concurrent Screen diverged from the oracle", i)
				}
			}
		}(g)
	}
	wg.Wait()
}
