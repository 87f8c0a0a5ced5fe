"""The paper's contribution: upward-route follower search and the
greedy BASE / BASE+ / GAS anchoring algorithms."""
