//go:build !unix

package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// refusedURL returns the URL of a closed loopback server. Without a way
// to hold the port, another listener may take it before the test dials.
func refusedURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	ts.Close()
	return ts.URL
}
