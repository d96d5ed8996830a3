"""Desk-scale hierarchical RL lab for goal-oriented dialogue.

A strategy-planning agent composes skill sequences, a response agent
generates token sequences under those constraints, and both are optimized
jointly against a scripted shop environment with a ranking-based planner
reward, a judged responder reward, and a turn-weighted joint reward.
"""
