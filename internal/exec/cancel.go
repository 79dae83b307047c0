package exec

import "context"

// ctxErr returns ctx.Err(), tolerating a nil context so operators can
// check cancellation unconditionally.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
