package deflate

import "testing"

// CheckRoundTrip runs checkRoundTrip on the pooled encoder for the external
// tests, which hold the repository's own buffers.
func CheckRoundTrip(t *testing.T, data []byte) []byte { return checkRoundTrip(t, nil, data) }
