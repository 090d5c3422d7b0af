"""Where the ramp-response closed form is trustworthy and where it breaks.

The ramp expression never saturates the ramp, so it is exact only while the
ramp is still running. If the nadir arrives before t_r the prediction is
excellent; with a fast 1 s ramp, the unsaturated expression shoots off after
t_r and the nadir must come from simulation instead.
"""
import numpy as np

import sfrkit as sk

sc = sk.SystemConditions(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04, p_cont=300.0)

for t_r in (6.0, 3.0, 1.0):
    band = sk.RampBand(pfr=270.0, t_r=t_r)
    closed = sk.trace(sc, [band], t_end=30.0, dt=0.001, kind="ramp")
    numeric = sk.integrate(sc, lambda t: sk.total_pfr_value([band], t),
                           sk.IntegrationSpec(t_end=30.0, dt=0.001))

    i = int(np.argmin(closed.samples))
    t_closed, df_closed = closed.times[i], closed.samples[i]
    t_num, df_num = sk.trace_nadir(numeric)
    after = closed.times > t_r
    tail_gap = np.abs(closed.samples[after] - numeric.samples[after]).max()

    print(f"ramp time {t_r:3.0f} s:")
    print(f"  closed-form nadir {df_closed:+.4f} Hz @ {t_closed:6.3f} s"
          f"   (nadir {'inside' if t_closed <= t_r else 'OUTSIDE'} the ramp)")
    print(f"  numerical nadir   {df_num:+.4f} Hz @ {t_num:6.3f} s")
    print(f"  worst divergence after t_r: {tail_gap:.2e} Hz")
    print()

print("fast ramps need the saturating simulation; the lag form (demo 01) has")
print("no such limitation, which is why the equivalent-band reduction targets it.")
