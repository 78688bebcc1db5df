package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// generateDigest hashes every field of every record Generate emits for
// cfg, so any change to the generated stream — a time, a client name, a
// URL or a size — changes the digest.
func generateDigest(t *testing.T, cfg GenConfig) string {
	t.Helper()
	records, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range records {
		fmt.Fprintf(h, "%d %s %s %d\n", r.Time.UnixNano(), r.Client, r.URL, r.Size)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigestPinned pins the generator's output byte for byte: the
// digests were computed before URL and client strings were interned, and
// interning must not change a single record.
func TestGenerateDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{1, "4d77fc656a5fd29d90e18aea1002bff1870764f04cf0e77ceb75556923fe8f6e"},
		{7, "13386308ae262416612497acd7d14904027291c24fe42b5816f3879e135b7a7f"},
	} {
		cfg := BULike().Scaled(0.01)
		cfg.Seed = tc.seed
		if got := generateDigest(t, cfg); got != tc.want {
			t.Errorf("seed %d: Generate digest = %s, want %s", tc.seed, got, tc.want)
		}
	}
}

// TestGenerateDigestPinnedFullScale pins Generate(BULike()) at full scale,
// the exact stream the paper-scale replays and the benchmark consume. The
// digests were computed with the reflective stable sort SortByTime used
// before the run merge, so they prove the merge reorders nothing.
func TestGenerateDigestPinnedFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation")
	}
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{1, "6fdd553c60d8a811c74c6446b26ac296272038423aa3f230627ad465505da0ca"},
		{3, "4efa77affe58ed6cef74d99e135ab5cc0f624e1e3cbad14cef48f3afa4251e49"},
	} {
		cfg := BULike()
		cfg.Seed = tc.seed
		if got := generateDigest(t, cfg); got != tc.want {
			t.Errorf("seed %d: Generate digest = %s, want %s", tc.seed, got, tc.want)
		}
	}
}
