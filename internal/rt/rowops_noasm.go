//go:build !amd64

package rt

// No wide row loops on this GOARCH: rowops.go's Go loops take every row.

func wide(int) bool { return false }

func wideRow(uint8, *float64, *float64, *float64, int, float64) {}
