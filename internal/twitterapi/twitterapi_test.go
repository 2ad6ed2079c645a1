package twitterapi

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

func newTestServer(t *testing.T, opts ...ServerOption) (*Server, *Client) {
	t.Helper()
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 1500
	cfg.OrganicTweetsPerHour = 300
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(socialnet.NewEngine(w), opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, ts.Client())
}

func TestUserShowBScreenName(t *testing.T) {
	srv, client := newTestServer(t)
	want := srv.engine.World().Accounts()[3]
	got, err := client.UserShow(context.Background(), want.ScreenName)
	if err != nil {
		t.Fatalf("UserShow: %v", err)
	}
	if got.ID != int64(want.ID) || got.FollowersCount != want.FollowersCount {
		t.Fatalf("UserShow mismatch: got %+v", got)
	}
}

func TestUserShowByID(t *testing.T) {
	srv, client := newTestServer(t)
	want := srv.engine.World().Accounts()[7]
	got, err := client.UserByID(context.Background(), int64(want.ID))
	if err != nil {
		t.Fatalf("UserByID: %v", err)
	}
	if got.ScreenName != want.ScreenName {
		t.Fatalf("UserByID returned %q, want %q", got.ScreenName, want.ScreenName)
	}
}

func TestUserShowNotFound(t *testing.T) {
	_, client := newTestServer(t)
	_, err := client.UserShow(context.Background(), "definitely_not_a_user_xyz")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != 404 {
		t.Fatalf("want 404 APIError, got %v", err)
	}
}

func TestUsersLookupSkipsUnknown(t *testing.T) {
	srv, client := newTestServer(t)
	accts := srv.engine.World().Accounts()
	ids := []int64{int64(accts[0].ID), 99999999, int64(accts[1].ID)}
	users, err := client.UsersLookup(context.Background(), ids)
	if err != nil {
		t.Fatalf("UsersLookup: %v", err)
	}
	if len(users) != 2 {
		t.Fatalf("UsersLookup returned %d users, want 2", len(users))
	}
}

func TestUsersSearchNumericAttribute(t *testing.T) {
	_, client := newTestServer(t)
	users, err := client.UsersSearch(context.Background(), SearchQuery{
		Attr:  "followers_count",
		Value: 1000,
		Count: 5,
	})
	if err != nil {
		t.Fatalf("UsersSearch: %v", err)
	}
	if len(users) == 0 {
		t.Fatal("no users found near followers=1000")
	}
	for _, u := range users {
		if u.FollowersCount < 650 || u.FollowersCount > 1350 {
			t.Fatalf("user %q followers %d outside band", u.ScreenName, u.FollowersCount)
		}
	}
}

func TestUsersSearchHashtagAndTrend(t *testing.T) {
	_, client := newTestServer(t)
	users, err := client.UsersSearch(context.Background(), SearchQuery{
		Attr:     "hashtag",
		Category: "social",
		Count:    5,
	})
	if err != nil || len(users) == 0 {
		t.Fatalf("hashtag search: %v (%d users)", err, len(users))
	}
	users, err = client.UsersSearch(context.Background(), SearchQuery{
		Attr:  "trend",
		Trend: "trending-up",
		Count: 5,
	})
	if err != nil || len(users) == 0 {
		t.Fatalf("trend search: %v (%d users)", err, len(users))
	}
}

func TestUsersSearchRejectsBadRequests(t *testing.T) {
	_, client := newTestServer(t)
	var apiErr *APIError
	_, err := client.UsersSearch(context.Background(), SearchQuery{Attr: "nope", Count: 5})
	if !errors.As(err, &apiErr) || apiErr.Code != 400 {
		t.Fatalf("bad attr: want 400, got %v", err)
	}
	_, err = client.UsersSearch(context.Background(), SearchQuery{Attr: "random", Count: 0})
	if !errors.As(err, &apiErr) || apiErr.Code != 400 {
		t.Fatalf("bad count: want 400, got %v", err)
	}
}

func TestTrendsEndpoint(t *testing.T) {
	_, client := newTestServer(t)
	all, err := client.Trends(context.Background(), "")
	if err != nil || len(all) == 0 {
		t.Fatalf("Trends: %v (%d)", err, len(all))
	}
	up, err := client.Trends(context.Background(), "trending-up")
	if err != nil {
		t.Fatalf("Trends(up): %v", err)
	}
	for _, tr := range up {
		if tr.State != "trending-up" {
			t.Fatalf("trend %q state %q, want trending-up", tr.Name, tr.State)
		}
	}
}

func TestAdvanceAndStats(t *testing.T) {
	_, client := newTestServer(t)
	stats, err := client.Advance(context.Background(), 2)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if stats.Hours != 2 || stats.TweetsTotal == 0 {
		t.Fatalf("stats after advance: %+v", stats)
	}
	again, err := client.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if again.TweetsTotal != stats.TweetsTotal {
		t.Fatal("Stats disagrees with Advance response")
	}
}

func TestStreamDeliversMentionFilteredTweets(t *testing.T) {
	srv, client := newTestServer(t)

	// Track the most attractive accounts so spam mentions hit them.
	var tracked []string
	trackedIDs := make(map[int64]struct{})
	world := srv.engine.World()
	now := srv.engine.Now()
	for _, a := range world.Accounts() {
		if world.Attraction(a, now) > 4 {
			tracked = append(tracked, "@"+a.ScreenName)
			trackedIDs[int64(a.ID)] = struct{}{}
		}
		if len(tracked) >= 20 {
			break
		}
	}
	if len(tracked) == 0 {
		t.Fatal("no attractive accounts to track")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	var got []Tweet
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = client.Stream(ctx, StreamFilter{Track: tracked}, func(tw Tweet) {
			mu.Lock()
			got = append(got, tw.Clone()) // retained past the callback
			mu.Unlock()
		})
	}()

	// Let the stream attach, then generate traffic.
	time.Sleep(50 * time.Millisecond)
	srv.Advance(3)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("stream delivered no tweets")
	}
	for _, tw := range got {
		if _, ok := trackedIDs[tw.User.ID]; ok {
			continue // tracked account's own post
		}
		found := false
		for _, m := range tw.Entities.Mentions {
			if _, ok := trackedIDs[m.ID]; ok {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("stream delivered unrelated tweet %d", tw.ID)
		}
	}
}

func TestStreamFirehoseWithoutFilters(t *testing.T) {
	srv, client := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	count := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = client.Stream(ctx, StreamFilter{}, func(Tweet) {
			mu.Lock()
			count++
			mu.Unlock()
		})
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Advance(1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := count
		mu.Unlock()
		if n > 100 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if count == 0 {
		t.Fatal("firehose delivered nothing")
	}
}

func TestOracleFieldsHiddenByDefault(t *testing.T) {
	srv, client := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	sawOracle := false
	n := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = client.Stream(ctx, StreamFilter{}, func(tw Tweet) {
			mu.Lock()
			if tw.Spam != nil || tw.CampaignID != nil {
				sawOracle = true
			}
			n++
			mu.Unlock()
		})
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Advance(1)
	time.Sleep(300 * time.Millisecond)
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if n == 0 {
		t.Fatal("no tweets observed")
	}
	if sawOracle {
		t.Fatal("ground-truth fields leaked on a non-oracle stream")
	}
}

func TestOracleFieldsPresentWhenEnabled(t *testing.T) {
	srv, client := newTestServer(t, WithOracle())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	withOracle := 0
	n := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = client.Stream(ctx, StreamFilter{}, func(tw Tweet) {
			mu.Lock()
			if tw.Spam != nil {
				withOracle++
			}
			n++
			mu.Unlock()
		})
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Advance(1)
	time.Sleep(300 * time.Millisecond)
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if n == 0 || withOracle != n {
		t.Fatalf("oracle fields on %d/%d tweets, want all", withOracle, n)
	}
}

func TestSplitNonEmpty(t *testing.T) {
	if got := splitNonEmpty(""); got != nil {
		t.Fatalf("splitNonEmpty(empty) = %v", got)
	}
	got := splitNonEmpty("a,,b, ,c")
	if len(got) != 3 {
		t.Fatalf("splitNonEmpty = %v, want 3 parts", got)
	}
}

func TestTrendNameMapping(t *testing.T) {
	if trendName(socialnet.TrendUp) != "trending-up" {
		t.Fatal("trendName(TrendUp) wrong")
	}
	if !strings.Contains(trendName(socialnet.TrendNone), "no-trending") {
		t.Fatal("trendName(TrendNone) wrong")
	}
	if _, err := parseTrend("trending-down"); err != nil {
		t.Fatal("parseTrend rejected valid state")
	}
	if _, err := parseTrend("bogus"); err == nil {
		t.Fatal("parseTrend accepted bogus state")
	}
	if _, err := parseCategory("social"); err != nil {
		t.Fatal("parseCategory rejected valid category")
	}
	if _, err := parseCategory("no hashtag"); err != nil {
		t.Fatal("parseCategory rejected no-hashtag")
	}
	if _, err := parseCategory("bogus"); err == nil {
		t.Fatal("parseCategory accepted bogus category")
	}
}

func TestEncodeTweetMentions(t *testing.T) {
	srv, _ := newTestServer(t)
	world := srv.engine.World()
	a := world.Accounts()[0]
	b := world.Accounts()[1]
	tw := &socialnet.Tweet{
		ID:        1,
		AuthorID:  a.ID,
		CreatedAt: time.Now(),
		Kind:      socialnet.KindTweet,
		Source:    socialnet.SourceWeb,
		Text:      "hi",
		Mentions:  []socialnet.AccountID{b.ID},
	}
	wire := encodeTweet(tw, world.Account, false)
	if wire.User.ID != int64(a.ID) {
		t.Fatal("author not encoded")
	}
	if len(wire.Entities.Mentions) != 1 || wire.Entities.Mentions[0].ScreenName != b.ScreenName {
		t.Fatal("mentions not encoded")
	}
	if wire.Spam != nil {
		t.Fatal("oracle fields in non-oracle encode")
	}
}

// TestUsersSearchConcurrentWithAdvance issues user searches from several
// goroutines while the server's engine runs hours: the world's screening
// snapshot is built by searches and dropped by the engine, so under -race
// this checks the server keeps the two apart.
func TestUsersSearchConcurrentWithAdvance(t *testing.T) {
	_, client := newTestServer(t)
	queries := []SearchQuery{
		{Attr: "followers_count", Value: 150, Count: 5},
		{Attr: "statuses_per_day", Value: 1, Count: 5, ActiveOnly: true},
		{Attr: "hashtag", Category: "social", Count: 5},
		{Attr: "random", Count: 5},
	}
	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func(q SearchQuery) {
			defer wg.Done()
			for {
				if _, err := client.UsersSearch(ctx, q); err != nil {
					t.Errorf("UsersSearch(%s): %v", q.Attr, err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(q)
	}
	for h := 0; h < 3; h++ {
		if _, err := client.Advance(ctx, 1); err != nil {
			t.Errorf("Advance: %v", err)
			break
		}
	}
	close(done)
	wg.Wait()
}
