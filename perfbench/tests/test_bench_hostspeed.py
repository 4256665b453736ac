import pytest

import hostspeed
import workloads


def test_scale_maps_the_reference_kernel_time_to_wall_time():
    assert hostspeed.scale(30.0, hostspeed.REFERENCE_MS) == pytest.approx(30.0)
    # a host running the kernel twice as slow halves the scaled time
    assert hostspeed.scale(30.0, 2 * hostspeed.REFERENCE_MS) == pytest.approx(15.0)


def test_kernel_is_fixed_work():
    assert hostspeed.kernel() == hostspeed.kernel()
    ms = hostspeed.sample(reps=2)
    assert 0 < ms < 1000


def test_sampling_leaves_the_inputs_unchanged():
    wl = workloads.WORKLOADS["digital-n8"]
    first = next(workloads.instances(wl, 4, 0))
    hostspeed.sample()
    again = next(workloads.instances(wl, 4, 0))
    assert first.public == again.public and first.key_json == again.key_json


def test_closed_loop_scales_each_attack_by_its_own_sample():
    wl = workloads.WORKLOADS["digital-n8"]
    out = workloads.closed_loop(wl.scheme, workloads.instances(wl, 4, 0), 0.0, min_attacks=2)
    assert len(out.kernel_ms) == len(out.attack_ms) == len(out.wall_attack_ms) == 2
    for scaled, wall, kernel_ms in zip(out.attack_ms, out.wall_attack_ms, out.kernel_ms):
        assert scaled == pytest.approx(hostspeed.scale(wall, kernel_ms))
