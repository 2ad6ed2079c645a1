package socialnet

import (
	"math/rand"
	"time"
)

// DefaultTolerance is the relative band used when matching numeric sample
// values during account screening.
const DefaultTolerance = 0.35

// ScreenQuery is an account-screening request: find candidate
// pseudo-honeypot nodes satisfying a selector. It is the in-process
// equivalent of the account filtering the paper performs through the
// Twitter search/streaming APIs.
type ScreenQuery struct {
	Selector Selector

	// Count is the number of accounts to return.
	Count int

	// Tolerance is the relative band for numeric sample values;
	// non-positive values use DefaultTolerance.
	Tolerance float64

	// ActiveOnly keeps only accounts in Active status (paper §III-D);
	// ActiveWindow defaults to 24h.
	ActiveOnly   bool
	ActiveWindow time.Duration

	// Exclude lists accounts that must not be selected (e.g. nodes
	// already used in a previous rotation).
	Exclude map[AccountID]struct{}

	// MaxFriendFollowerRatio drops candidates whose friend/follower
	// ratio exceeds the bound — basic selection hygiene against
	// follow-heavy spam accounts (the pseudo-honeypot harnesses *normal*
	// users). Zero or negative disables the filter.
	MaxFriendFollowerRatio float64
}

// screenSnapshot is the population in compact columns at one instant of
// one world epoch. Every Screen at that instant shares it, so an hourly
// rotation walks the account pointers once instead of once per query.
type screenSnapshot struct {
	now time.Time
	// rows holds the non-suspended accounts in world order.
	rows []screenRow
	// values holds one column per numeric attribute, parallel to rows.
	// The profile attributes are filled while the rows are built, when
	// each account is already in cache; any other attribute on first use.
	values map[Attribute][]float64
	// active lists, per activity window, the indices of the rows in
	// Active status, filled on the first ActiveOnly query with that
	// window.
	active map[time.Duration][]int32
	// matches is scratch space reused by every query.
	matches []*Account
}

// screenRow is one account's non-numeric screening inputs.
type screenRow struct {
	acct *Account
	id   AccountID
	// sinceLastPost is now − lastPostAt; postedAndMentioned is the rest
	// of Account.Active's test (a post was seen and mentions are recent).
	sinceLastPost      time.Duration
	postedAndMentioned bool
	category           HashtagCategory
	trend              TrendState
}

// screenView returns the snapshot for instant now, building it when the
// world epoch moved or the instant changed. The caller holds screenMu.
func (w *World) screenView(now time.Time) *screenSnapshot {
	if s := w.snap; s != nil && s.now.Equal(now) {
		return s
	}
	s := &screenSnapshot{
		now:    now,
		rows:   make([]screenRow, 0, len(w.accounts)),
		values: make(map[Attribute][]float64, len(ProfileAttributes)),
		active: make(map[time.Duration][]int32),
	}
	cols := make([][]float64, len(ProfileAttributes))
	for k := range cols {
		cols[k] = make([]float64, 0, len(w.accounts))
	}
	for _, a := range w.accounts {
		if a.Suspended {
			continue
		}
		s.rows = append(s.rows, screenRow{
			acct:               a,
			id:                 a.ID,
			sinceLastPost:      now.Sub(a.lastPostAt),
			postedAndMentioned: !a.lastPostAt.IsZero() && a.recentMentions > 0,
			category:           a.HashtagCategory,
			trend:              a.TrendAffinity,
		})
		for k, attr := range ProfileAttributes {
			cols[k] = append(cols[k], attr.Value(a, now))
		}
	}
	for k, attr := range ProfileAttributes {
		s.values[attr] = cols[k]
	}
	w.snap = s
	return s
}

// column returns the attribute's value for every row.
func (s *screenSnapshot) column(attr Attribute) []float64 {
	col, ok := s.values[attr]
	if !ok {
		col = make([]float64, len(s.rows))
		for i := range s.rows {
			col[i] = attr.Value(s.rows[i].acct, s.now)
		}
		s.values[attr] = col
	}
	return col
}

// activeRows returns the indices of the rows Active within window.
func (s *screenSnapshot) activeRows(window time.Duration) []int32 {
	idx, ok := s.active[window]
	if !ok {
		idx = []int32{}
		for i := range s.rows {
			if r := &s.rows[i]; r.postedAndMentioned && r.sinceLastPost <= window {
				idx = append(idx, int32(i))
			}
		}
		s.active[window] = idx
	}
	return idx
}

// advanceEpoch starts a new world epoch: account state may change from
// here on, so the screening snapshot is dropped. The engine calls it once
// per hour, right after the hour hooks return and before it touches any
// account; AddAccount and AdvanceSuspensions call it too.
func (w *World) advanceEpoch() {
	w.screenMu.Lock()
	w.snap = nil
	w.screenMu.Unlock()
}

// Screen returns up to q.Count non-suspended accounts matching the query
// at instant now, sampled uniformly among the matches using rng. The
// returned accounts are shared pointers into the world (profiles mutate as
// the engine runs, as live API lookups would).
//
// Every Screen at one instant within one world epoch reads the same
// snapshot of the population, built by the first of them. The epoch
// moves when the engine starts an hour's traffic, on AddAccount (and so
// SpawnSpammer) and on AdvanceSuspensions. Code that edits Account fields
// directly must not expect a Screen at the same instant and epoch to see
// the edit. Screen is safe for concurrent use while nothing mutates the
// world.
func (w *World) Screen(q ScreenQuery, now time.Time, rng *rand.Rand) []*Account {
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

	w.screenMu.Lock()
	defer w.screenMu.Unlock()
	snap := w.screenView(now)
	sel := q.Selector
	// The ratio attribute's Value is Account.FriendFollowerRatio, and the
	// numeric band is Selector.Matches' arithmetic hoisted out of the scan.
	ratios := snap.column(AttrFriendFollowerRatio)
	var values []float64
	var lo, hi float64
	switch sel.Attr {
	case AttrHashtag, AttrTrend, AttrRandom:
	default:
		values = snap.column(sel.Attr)
		lo, hi = sel.Value*(1-tol), sel.Value*(1+tol)
	}

	keep := func(i int) bool {
		r := &snap.rows[i]
		switch sel.Attr {
		case AttrHashtag:
			if r.category != sel.Category {
				return false
			}
		case AttrTrend:
			if r.trend != sel.Trend {
				return false
			}
		case AttrRandom:
		default:
			if v := values[i]; !(v >= lo && v <= hi) {
				return false
			}
		}
		if q.MaxFriendFollowerRatio > 0 && ratios[i] > q.MaxFriendFollowerRatio {
			return false
		}
		_, excluded := q.Exclude[r.id]
		return !excluded
	}
	matches := snap.matches[:0]
	if q.ActiveOnly {
		for _, i := range snap.activeRows(window) {
			if keep(int(i)) {
				matches = append(matches, snap.rows[i].acct)
			}
		}
	} else {
		for i := range snap.rows {
			if keep(i) {
				matches = append(matches, snap.rows[i].acct)
			}
		}
	}
	snap.matches = matches
	if len(matches) > q.Count {
		// Partial Fisher–Yates: sample Count of the matches uniformly.
		for i := 0; i < q.Count; i++ {
			j := i + rng.Intn(len(matches)-i)
			matches[i], matches[j] = matches[j], matches[i]
		}
		matches = matches[:q.Count]
	}
	if len(matches) == 0 {
		return nil
	}
	return append([]*Account(nil), matches...)
}
