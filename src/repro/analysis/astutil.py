"""Shared AST spelunking helpers for the contract checkers."""

import ast


def class_methods(class_def):
    """name -> FunctionDef for the *direct* methods of *class_def*."""
    return {node.name: node for node in class_def.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def iter_class_defs(tree):
    """Every ClassDef in *tree*, including nested ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def self_attr_stores(func_def):
    """attr name -> first assignment line for ``self.attr = ...`` targets."""
    stores = {}

    def record(target):
        if isinstance(target, ast.Attribute) and is_self(target.value):
            stores.setdefault(target.attr, target.lineno)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record(element)
        elif isinstance(target, ast.Starred):
            record(target.value)

    for node in ast.walk(func_def):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            record(node.target)
    return stores


def is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def self_attr_names(*func_defs):
    """Every attribute name touched as ``self.<attr>`` in the given bodies."""
    names = set()
    for func_def in func_defs:
        if func_def is None:
            continue
        for node in ast.walk(func_def):
            if isinstance(node, ast.Attribute) and is_self(node.value):
                names.add(node.attr)
    return names


def constant_string_seq(node):
    """The tuple of strings *node* spells, or None if it is anything else."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        strings = []
        for element in node.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                return None
            strings.append(element.value)
        return tuple(strings)
    return None


def call_name(node):
    """The trailing name of a call target: ``f(...)`` -> f, ``a.b.f(...)`` -> f."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def dotted_root(node):
    """The root Name of an attribute chain (``a.b.c`` -> ``a``), or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None

