//go:build !linux || (!amd64 && !arm64)

package main

// sysMemfdCreate is unknown here, so daemon-wal cannot run.
var sysMemfdCreate = -1
