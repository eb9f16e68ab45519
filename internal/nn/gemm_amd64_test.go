//go:build amd64

package nn

func init() {
	setAVX2 = func(on bool) (was bool) {
		was, useAVX2 = useAVX2, on
		return was
	}
}
